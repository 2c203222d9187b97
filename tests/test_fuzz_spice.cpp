// Seeded, bounded mutational fuzz of the SPICE front end. Generated real and
// fake decks (one with decaps and PWL loads) are mutated with byte flips,
// truncation, duplicated and deleted lines, stray '+' continuations, huge
// exponents and NUL bytes, then fed to spice::parse_string and
// pg::load_design. Only irf::Error may escape, and every accepted mutant
// must survive write -> parse unchanged. The seed and the iteration count
// are fixed, so every run checks the same mutants.

#include <gtest/gtest.h>

#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "netlist_equal.hpp"
#include "pg/design.hpp"
#include "pg/generator.hpp"
#include "pg/transient.hpp"
#include "spice/parser.hpp"
#include "spice/writer.hpp"

namespace irf {
namespace {

constexpr std::uint64_t kSeed = 20260917;
constexpr int kMutantsPerDeck = 300;
constexpr int kLoadDesignEvery = 10;  ///< every n-th mutant also goes through a file

std::vector<std::string> base_decks() {
  Rng rng(kSeed);
  std::vector<std::string> decks;
  decks.push_back(spice::write_string(pg::generate_fake_design(16, rng, "fz").netlist));
  decks.push_back(spice::write_string(pg::generate_real_design(16, rng, "fz").netlist));
  pg::PgDesign transient = pg::generate_real_design(16, rng, "fz");
  pg::add_transient_activity(transient, rng);
  decks.push_back(spice::write_string(transient.netlist));
  return decks;
}

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(n) - 1));
}

/// Offsets at which the lines of `text` start.
std::vector<std::size_t> line_starts(const std::string& text) {
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 0; i + 1 < text.size(); ++i) {
    if (text[i] == '\n') starts.push_back(i + 1);
  }
  return starts;
}

/// The line starting at `start`, with its newline.
std::string line_at(const std::string& text, std::size_t start) {
  const std::size_t end = text.find('\n', start);
  return text.substr(start, end == std::string::npos ? std::string::npos : end - start + 1);
}

void mutate(std::string& text, Rng& rng) {
  static const char* const kHugeValues[] = {"1e999",   "-1e400", "1e-999",   "9e307t",
                                            "1e308meg", "4.9e-324f", "1e-400k", "0x1p9"};
  if (text.empty()) text = "\n";
  const std::vector<std::size_t> starts = line_starts(text);
  const std::size_t line = starts[pick(rng, starts.size())];
  switch (rng.uniform_int(0, 6)) {
    case 0:  // byte flip
      text[pick(rng, text.size())] = static_cast<char>(rng.uniform_int(0, 255));
      break;
    case 1:  // truncation
      text.resize(pick(rng, text.size()));
      break;
    case 2:  // duplicated line
      text.insert(line, line_at(text, line));
      break;
    case 3:  // deleted line
      text.erase(line, line_at(text, line).size());
      break;
    case 4:  // stray '+' continuation, as a line of its own or over a card's head
      if (rng.bernoulli(0.5)) {
        text.insert(line, rng.bernoulli(0.5) ? "+\n" : "+ 1m n1_m1_0_0\n");
      } else {
        text[line] = '+';
      }
      break;
    case 5: {  // huge exponent in place of a card's last token
      const std::string card = line_at(text, line);
      const std::size_t last = card.find_last_of(' ');
      if (last == std::string::npos) break;
      const std::size_t end = card.back() == '\n' ? card.size() - 1 : card.size();
      text.replace(line + last + 1, end - last - 1, kHugeValues[pick(rng, 8)]);
      break;
    }
    default:  // NUL byte
      text.insert(pick(rng, text.size() + 1), 1, '\0');
      break;
  }
}

/// Parse `text`; nullopt when it is rejected with an irf::Error. Any other
/// exception fails the test.
std::optional<spice::Netlist> try_parse(const std::string& text, const std::string& what) {
  try {
    return spice::parse_string(text);
  } catch (const Error&) {
    return std::nullopt;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": non-irf exception from parse_string: " << e.what();
    return std::nullopt;
  }
}

TEST(SpiceFuzz, OnlyIrfErrorsEscapeAndAcceptedDecksRoundTrip) {
  Rng rng(kSeed);
  const std::filesystem::path path = std::filesystem::temp_directory_path() /
                                     ("irf_fuzz_" + std::to_string(::getpid())) /
                                     "netlist.sp";
  std::filesystem::create_directories(path.parent_path());
  int accepted = 0;
  int rejected = 0;
  int iteration = 0;
  for (const std::string& deck : base_decks()) {
    for (int m = 0; m < kMutantsPerDeck; ++m, ++iteration) {
      const std::string what = "mutant " + std::to_string(iteration);
      std::string text = deck;
      const int mutations = rng.uniform_int(1, 4);
      for (int k = 0; k < mutations; ++k) mutate(text, rng);

      const std::optional<spice::Netlist> net = try_parse(text, what);
      if (net) {
        ++accepted;
        const std::string written = spice::write_string(*net);
        const std::optional<spice::Netlist> again = try_parse(written, what + " rewritten");
        ASSERT_TRUE(again.has_value()) << what << ": accepted deck does not reparse";
        testing_support::expect_same_netlist(*net, *again);
      } else {
        ++rejected;
      }
      if (HasFailure()) FAIL() << "stopping at " << what;

      if (iteration % kLoadDesignEvery != 0) continue;
      {
        std::ofstream out(path, std::ios::binary);
        out << text;
      }
      try {
        const pg::PgDesign design = pg::load_design(path.string());
        ASSERT_TRUE(net.has_value()) << what << ": load_design accepted a rejected deck";
        testing_support::expect_same_netlist(*net, design.netlist);
      } catch (const Error&) {
      } catch (const std::exception& e) {
        FAIL() << what << ": non-irf exception from load_design: " << e.what();
      }
    }
  }
  std::filesystem::remove_all(path.parent_path());
  // The mutations must leave both outcomes common, or the fuzz tests little.
  EXPECT_GT(accepted, iteration / 10);
  EXPECT_GT(rejected, iteration / 10);
}

}  // namespace
}  // namespace irf
