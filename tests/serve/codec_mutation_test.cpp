/// \file codec_mutation_test.cpp
/// Seeded, bounded mutation of the text that feeds the serving simulator:
/// elastic and fidelity codec strings, priority and replication mixes, and
/// arrival-trace rows. Each mutant of a valid spelling must decode to a
/// value or be rejected cleanly — std::nullopt from a codec, or a
/// std::invalid_argument from an entry point whose message names the
/// input — and never as a failed internal requirement. What a codec
/// accepts round-trips through its to_string; an accepted elastic policy
/// also passes make_serving_config (or is rejected there, naming the
/// fault) and every precondition of serve::simulate on a request-free run.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster_spec.hpp"
#include "core/fidelity.hpp"
#include "core/system_config.hpp"
#include "engine/scenario.hpp"
#include "serve/arrivals.hpp"
#include "serve/elastic.hpp"
#include "serve/serving_simulator.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace optiplet {
namespace {

constexpr int kMutantsPerSeed = 200;

/// Characters a mutation inserts or substitutes: digits, signs, every
/// codec's separators, whitespace and a CSV quote.
constexpr std::string_view kChars = "0179-.eEx \t:/=,+\"";

/// Words a mutation inserts or substitutes: spellings parse_number
/// rejects, or that sit outside a field's range.
constexpr std::array<std::string_view, 8> kWords = {
    "inf", "nan", "-1", "99", "0x1", "1e400", "5000", "1e-9"};

/// One or two random edits of `text`: replace, insert, or delete.
std::string mutate(std::string text, util::Xoshiro256& rng) {
  const std::uint64_t edits = 1 + rng.next_below(2);
  for (std::uint64_t k = 0; k < edits; ++k) {
    const std::size_t at = rng.next_below(text.size() + 1);
    const std::string piece(
        rng.next_bool(0.7) ? kChars.substr(rng.next_below(kChars.size()), 1)
                           : kWords[rng.next_below(kWords.size())]);
    const std::uint64_t op = rng.next_below(3);
    if (op == 0 && at < text.size()) {
      text.replace(at, 1, piece);
    } else if (op == 1) {
      text.insert(at, piece);
    } else if (at < text.size()) {
      text.erase(at, 1);
    }
  }
  return text;
}

/// Decodes one input: returns when it is accepted or a codec refuses it
/// with nullopt; throws std::invalid_argument on a rejection.
using Decode = void (*)(const std::string& input);
/// True when a rejection message names the input.
using Names = bool (*)(const std::string& message, const std::string& input);

/// Drive `decode` over the seeds and `kMutantsPerSeed` mutants of each. A
/// std::invalid_argument must satisfy `names` and must not be a failed
/// requirement; anything else thrown fails the test.
void fuzz(const std::vector<std::string>& seeds, std::uint64_t rng_seed,
          Decode decode, Names names) {
  util::Xoshiro256 rng(rng_seed);
  for (const std::string& seed : seeds) {
    ASSERT_NO_THROW(decode(seed)) << "valid seed refused: " << seed;
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      const std::string input = mutate(seed, rng);
      try {
        decode(input);
      } catch (const std::invalid_argument& e) {
        const std::string message = e.what();
        EXPECT_EQ(message.find("requirement failed"), std::string::npos)
            << input << " -> " << message;
        EXPECT_TRUE(names(message, input)) << input << " -> " << message;
      } catch (const std::exception& e) {
        ADD_FAILURE() << input << " -> " << e.what();
      }
    }
  }
}

bool contains(const std::string& message, const std::string& piece) {
  return message.find(piece) != std::string::npos;
}

/// The grid is where a policy string enters a sweep; what it accepts
/// must also pass make_serving_config and serve::simulate's checks.
void decode_elastic(const std::string& text) {
  const core::SystemConfig system = core::default_system_config();
  engine::ScenarioGrid grid;
  grid.tenant_mixes = {"LeNet5"};
  grid.elastic_policies = {text};
  const std::vector<engine::ScenarioSpec> specs = grid.expand(system);
  serve::ServingSpec spec = *specs.front().serving;
  ASSERT_EQ(serve::elastic_from_string(serve::to_string(spec.elastic)),
            spec.elastic)
      << text;
  spec.requests = 0;
  spec.sla_s = 1.0;
  const serve::ServingConfig config =
      serve::make_serving_config(system, specs.front().arch, spec);
  try {
    (void)serve::simulate(config);
  } catch (const std::exception& e) {
    ADD_FAILURE() << text << " passed the entry checks, but "
                  << "serve::simulate refused it: " << e.what();
  }
}

/// The grid names a policy it cannot parse; make_serving_config names
/// a fault outside the chiplet pool.
bool names_elastic(const std::string& message, const std::string& input) {
  return message == "unparseable elastic policy: " + input ||
         (contains(message, "fault=") && contains(message, "chiplet"));
}

void decode_fidelity(const std::string& text) {
  const auto spec = core::fidelity_from_string(text);
  if (spec) {
    EXPECT_EQ(core::fidelity_from_string(core::to_string(*spec)), spec)
        << text;
  }
}

/// The fidelity codec never throws.
bool names_nothing(const std::string&, const std::string&) { return false; }

void decode_priority_mix(const std::string& text) {
  serve::ServingSpec spec;
  spec.tenant_mix = "LeNet5+MobileNetV2";
  spec.priority_mix = text;
  (void)spec.priorities();
}

void decode_replication_mix(const std::string& text) {
  cluster::ClusterSpec rack;
  rack.packages = 3;
  rack.replication_mix = text;
  (void)rack.replications(2);
}

/// A mix rejection names the whole mix or the quoted bad element.
bool names_mix(const std::string& message, const std::string& mix) {
  if (contains(message, mix)) {
    return true;
  }
  for (const std::string& part : util::split(mix, '+')) {
    if (contains(message, '"' + part + '"')) {
      return true;
    }
  }
  return false;
}

std::string trace_path() {
  return ::testing::TempDir() + "codec_mutation_trace.csv";
}

void decode_trace_row(const std::string& row) {
  {
    std::ofstream out(trace_path());
    out << "arrival_s,tenant,prefill_tokens,decode_tokens\n" << row << '\n';
  }
  (void)serve::load_arrival_trace(trace_path());
}

/// Every trace rejection names the file.
bool names_trace(const std::string& message, const std::string&) {
  return contains(message, trace_path());
}

TEST(CodecMutation, ElasticPolicies) {
  const std::vector<std::string> seeds = {
      "shift=0.2/tau=60/cool=600",
      "gate=1e-3:1e-4",
      "retry=4:2e-3",
      "bucket=3600/carbon=400:0.5:86400",
      "fault=1.0:2:1:-1",
      "fault=1.0:7:1:-1",  // the last chiplet of the Table-1 pool
      "fault=0.5:-1:0.5:0/gate=inf:0",
  };
  fuzz(seeds, 7, decode_elastic, names_elastic);
}

TEST(CodecMutation, FidelitySpecs) {
  const std::vector<std::string> seeds = {
      "analytical",
      "cycle",
      "sampled",
      "sampled:windows=8,layers=1,seed=1,conf=0.95",
      "sampled:seed=9007199254740993",
  };
  fuzz(seeds, 11, decode_fidelity, names_nothing);
}

TEST(CodecMutation, PriorityAndReplicationMixes) {
  fuzz({"0+1", "2+0", "4294967295+7"}, 13, decode_priority_mix, names_mix);
  fuzz({"1+2", "3+1", "9+1"}, 17, decode_replication_mix, names_mix);
}

TEST(CodecMutation, TraceRows) {
  const std::vector<std::string> seeds = {
      "1e-3,TinyGPT,256,64",
      "0.5,TinyGPT,8,0",
      "2,,1,1",
  };
  fuzz(seeds, 19, decode_trace_row, names_trace);
  std::remove(trace_path().c_str());
}

}  // namespace
}  // namespace optiplet
