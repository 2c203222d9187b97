// Tests for irf::spice: value parsing, node names, netlist, parser, writer
// round-trips and the circuit topology ("circuit generator") view.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <unistd.h>

#include "common/error.hpp"
#include "netlist_equal.hpp"
#include "spice/netlist.hpp"
#include "spice/node_name.hpp"
#include "spice/parser.hpp"
#include "spice/topology.hpp"
#include "spice/value.hpp"
#include "spice/writer.hpp"

namespace irf::spice {
namespace {

TEST(Value, PlainNumbers) {
  EXPECT_DOUBLE_EQ(parse_value("0.5"), 0.5);
  EXPECT_DOUBLE_EQ(parse_value("-3"), -3.0);
  EXPECT_DOUBLE_EQ(parse_value("1e-3"), 1e-3);
}

TEST(Value, EngineeringSuffixes) {
  EXPECT_DOUBLE_EQ(parse_value("3m"), 3e-3);
  EXPECT_DOUBLE_EQ(parse_value("2k"), 2e3);
  EXPECT_DOUBLE_EQ(parse_value("2MEG"), 2e6);
  EXPECT_DOUBLE_EQ(parse_value("5u"), 5e-6);
  EXPECT_DOUBLE_EQ(parse_value("7n"), 7e-9);
  EXPECT_DOUBLE_EQ(parse_value("1p"), 1e-12);
  EXPECT_DOUBLE_EQ(parse_value("4f"), 4e-15);
  EXPECT_DOUBLE_EQ(parse_value("1g"), 1e9);
  EXPECT_DOUBLE_EQ(parse_value("2t"), 2e12);
}

TEST(Value, TrailingUnitLetters) {
  EXPECT_DOUBLE_EQ(parse_value("2kohm"), 2e3);
  EXPECT_DOUBLE_EQ(parse_value("3mA"), 3e-3);
}

TEST(Value, MalformedThrows) {
  EXPECT_THROW(parse_value(""), ParseError);
  EXPECT_THROW(parse_value("abc"), ParseError);
  EXPECT_THROW(parse_value("1x"), ParseError);
  // The checked parser also rejects forms strtod would quietly accept.
  EXPECT_THROW(parse_value("inf"), ParseError);
  EXPECT_THROW(parse_value("nan"), ParseError);
  EXPECT_THROW(parse_value("0x10"), ParseError);
  EXPECT_THROW(parse_value("1e999"), ParseError);
  EXPECT_THROW(parse_value("1e300t"), ParseError);  // overflows through the suffix
}

TEST(Value, FormatRoundTrips) {
  for (double v : {0.5, 1234.5678, 1e-9, -42.0}) {
    EXPECT_DOUBLE_EQ(parse_value(format_value(v)), v);
  }
}

TEST(NodeName, ParseAndCompose) {
  NodeCoords c = parse_node_name("n1_m4_17500_209000");
  EXPECT_EQ(c.net, 1);
  EXPECT_EQ(c.layer, 4);
  EXPECT_EQ(c.x_nm, 17500);
  EXPECT_EQ(c.y_nm, 209000);
  EXPECT_EQ(make_node_name(c), "n1_m4_17500_209000");
}

TEST(NodeName, Detection) {
  EXPECT_TRUE(is_coordinate_name("n1_m1_0_0"));
  EXPECT_FALSE(is_coordinate_name("vdd"));
  EXPECT_FALSE(is_coordinate_name("n1_m1_0"));
  EXPECT_FALSE(is_coordinate_name("x1_m1_0_0"));
  EXPECT_FALSE(is_coordinate_name("n1_m1_a_0"));
  EXPECT_THROW(parse_node_name("bogus"), ParseError);
}

TEST(Netlist, InterningAndGround) {
  Netlist net;
  NodeId a = net.intern_node("n1_m1_0_0");
  NodeId b = net.intern_node("n1_m1_0_0");
  EXPECT_EQ(a, b);
  EXPECT_EQ(net.intern_node("0"), kGround);
  EXPECT_EQ(net.intern_node("gnd"), kGround);
  EXPECT_EQ(net.num_nodes(), 1);
  ASSERT_TRUE(net.node_coords(a).has_value());
  EXPECT_EQ(net.node_coords(a)->layer, 1);
}

TEST(Netlist, ArenaOffsetIsCheckedBeforeNarrowing) {
  constexpr std::size_t kMax = std::numeric_limits<std::uint32_t>::max();
  EXPECT_EQ(detail::narrow_arena_offset(kMax), kMax);
  EXPECT_THROW(detail::narrow_arena_offset(kMax + 1), Error);
}

// node_name() views the name arena, which intern_node grows. Interning a
// view of the arena must copy it safely even when that growth reallocates:
// under ASan a dangling read here is a heap-use-after-free.
TEST(Netlist, InternOwnNameViewIsSafe) {
  Netlist net;
  const NodeId base = net.intern_node(std::string(300, 'x'));
  for (std::size_t len = 299; len > 0; --len) {
    const NodeId id = net.intern_node(net.node_name(base).substr(0, len));
    EXPECT_EQ(net.node_name(id), std::string(len, 'x'));
    EXPECT_EQ(net.intern_node(net.node_name(id)), id);
  }
  EXPECT_EQ(net.num_nodes(), 300);
  EXPECT_EQ(net.node_name(base), std::string(300, 'x'));
}

TEST(Netlist, ValidationCatchesProblems) {
  Netlist net;
  NodeId a = net.intern_node("n1_m1_0_0");
  EXPECT_THROW(net.add_resistor("R1", a, a, -1.0), ParseError);  // negative R
  net.add_resistor("R1", a, net.intern_node("n1_m1_2000_0"), 1.0);
  EXPECT_THROW(net.validate(), ParseError);  // no voltage source
  net.add_voltage_source("V1", a, 1.1);
  EXPECT_NO_THROW(net.validate());
}

TEST(Netlist, LayersSorted) {
  Netlist net;
  net.intern_node("n1_m7_0_0");
  net.intern_node("n1_m1_0_0");
  net.intern_node("n1_m4_0_0");
  std::vector<int> layers = net.layers();
  ASSERT_EQ(layers.size(), 3u);
  EXPECT_EQ(layers[0], 1);
  EXPECT_EQ(layers[2], 7);
}

TEST(Netlist, ScaleCurrents) {
  Netlist net;
  NodeId a = net.intern_node("n1_m1_0_0");
  net.add_current_source("I1", a, 2.0);
  net.scale_current_sources(0.5);
  EXPECT_DOUBLE_EQ(net.current_sources()[0].amps, 1.0);
}

constexpr const char* kDeck = R"(* tiny PG deck
V1 n1_m2_0_0 0 1.1
R1 n1_m1_0_0 n1_m1_2000_0 0.5
R2 n1_m1_2000_0 n1_m1_4000_0 0.5
Rv n1_m2_0_0 n1_m1_0_0 0.1
I1 n1_m1_4000_0 0 1m
.end
)";

TEST(Parser, ParsesTinyDeck) {
  Netlist net = parse_string(kDeck);
  EXPECT_EQ(net.num_nodes(), 4);
  EXPECT_EQ(net.resistors().size(), 3u);
  EXPECT_EQ(net.current_sources().size(), 1u);
  EXPECT_EQ(net.voltage_sources().size(), 1u);
  EXPECT_DOUBLE_EQ(net.current_sources()[0].amps, 1e-3);
}

TEST(Parser, HandlesCommentsAndContinuations) {
  Netlist net = parse_string(
      "* comment\n"
      "V1 n1_m1_0_0 0 1.1 $ inline comment\n"
      "R1 n1_m1_0_0\n"
      "+ n1_m1_2000_0 0.5\n"
      ".end\n");
  EXPECT_EQ(net.resistors().size(), 1u);
  EXPECT_DOUBLE_EQ(net.resistors()[0].ohms, 0.5);
}

TEST(Parser, ReversedSourceOrientationNormalized) {
  Netlist net = parse_string(
      "V1 0 n1_m1_0_0 -1.1\n"
      "R1 n1_m1_0_0 n1_m1_2000_0 1\n"
      "I1 0 n1_m1_2000_0 -2m\n");
  EXPECT_DOUBLE_EQ(net.voltage_sources()[0].volts, 1.1);
  EXPECT_DOUBLE_EQ(net.current_sources()[0].amps, 2e-3);
}

TEST(Parser, ErrorsCarryLineNumbers) {
  try {
    parse_string("V1 n1_m1_0_0 0 1.1\nR1 n1_m1_0_0 0.5\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

// The exact message of each malformed deck: line numbers count comment,
// blank and '+' continuation lines, a card reports the line it starts on,
// and element errors keep their nesting.
TEST(Parser, ErrorMessagesMatchTable) {
  struct Case {
    const char* deck;
    const char* message;
  };
  const Case cases[] = {
      {"V1 n1_m1_0_0 0 1.1\nR1 n1_m1_0_0 0.5\n",
       "parse error: line 2: resistor needs 'Rname a b value'"},
      {"V1 n1_m1_0_0 0 1.1\nR1 n1_m1_0_0 n1_m1_1_0 0.5 7\n",
       "parse error: line 2: resistor needs 'Rname a b value'"},
      {"V1 n1_m1_0_0 0 1.1\nQ1 n1_m1_0_0 0 1\n",
       "parse error: line 2: unsupported element 'Q1' (only R, I, V, C are "
       "valid in a PG deck)"},
      {"V1 n1_m1_0_0 0 1.1\n.weird\n",
       "parse error: line 2: unsupported control card '.weird'"},
      {"V1 n1_m1_0_0 0 1.1\n.END\n.Options foo\n.probe\n",
       "parse error: line 4: unsupported control card '.probe'"},
      {"R1 0 0 1.0\nV1 n1_m1_0_0 0 1.1\n",
       "parse error: line 1: resistor between ground and ground"},
      {"V1 n1_m1_0_0 0 1.1\nR1 n1_m1_0_0 n1_m1_1_0 abc\n",
       "parse error: line 2: parse error: bad SPICE value 'abc'"},
      {"V1 n1_m1_0_0 0 1.1\nR1 n1_m1_0_0 n1_m1_1_0 1x\n",
       "parse error: line 2: parse error: unknown SPICE suffix 'x' in '1x'"},
      {"V1 n1_m1_0_0 0 1.1\nR1 n1_m1_0_0 n1_m1_1_0 1e999\n",
       "parse error: line 2: parse error: bad SPICE value '1e999'"},
      {"V1 n1_m1_0_0 0 1.1\nR1 n1_m1_0_0 n1_m1_1_0 0x10\n",
       "parse error: line 2: parse error: bad SPICE value '0x10'"},
      {"V1 n1_m1_0_0 0 1.1\nR1 n1_m1_0_0 n1_m1_1_0 -2k\n",
       "parse error: line 2: parse error: resistor R1 must be positive, got -2000.000000"},
      {"V1 n1_m1_0_0 0 1.1\nR1 n1_m1_0_0 n1_m1_1_0 0\n",
       "parse error: line 2: parse error: resistor R1 must be positive, got 0.000000"},
      {"V1 n1_m1_0_0 0 1.1\nR1 n1_m1_0_0 n1_m1_0_0 1\n",
       "parse error: resistor R1 shorts a node to itself"},
      {"V1 n1_m1_0_0 0 1.1\nR1 n1_m1_0_0 n1_m1_1_0 $ 1\n",
       "parse error: line 2: resistor needs 'Rname a b value'"},
      {"V1 n1_m1_0_0 0 1.1\nR1 n1_m1_0_0 n1_m1_1_0 ; 1\n",
       "parse error: line 2: resistor needs 'Rname a b value'"},
      {"* title\n\n+ n1_m1_0_0 0 1\nV1 n1_m1_0_0 0 1.1\n",
       "parse error: line 3: continuation with no preceding card"},
      {"V1 n1_m1_0_0 0 1.1\nI1 0 0 1m\n",
       "parse error: line 2: current source must connect a PG node to ground"},
      {"V1 n1_m1_0_0 0 1.1\nI1 n1_m1_0_0 n1_m1_1_0 1m\n",
       "parse error: line 2: current source must connect a PG node to ground"},
      {"V1 n1_m1_0_0 0 1.1\nI1 n1_m1_0_0 0\n",
       "parse error: line 2: current source needs 'Iname from to value'"},
      {"V1 n1_m1_0_0 0 1.1\nI1 n1_m1_0_0 0 1m 2m\n",
       "parse error: line 2: parse error: line 2: current source needs a single value"},
      {"V1 n1_m1_0_0 0 1.1\nI1 n1_m1_0_0 0 1q\n",
       "parse error: line 2: parse error: unknown SPICE suffix 'q' in '1q'"},
      {"V1 n1_m1_0_0 0 1.1\nI1 n1_m1_0_0 0 PWL 0 1\n",
       "parse error: line 2: parse error: line 2: malformed PWL(...) body"},
      {"V1 n1_m1_0_0 0 1.1\nI1 n1_m1_0_0 0 PWL(0 1 2)\n",
       "parse error: line 2: parse error: PWL needs an even number of time/value entries"},
      {"V1 n1_m1_0_0 0 1.1\nI1 n1_m1_0_0 0 PWL(0 1 1n 2 1n 3)\n",
       "parse error: line 2: parse error: PWL times must be strictly increasing"},
      {"V1 n1_m1_0_0 0 1.1\nI1 n1_m1_0_0 0 PWL(-1 1)\n",
       "parse error: line 2: parse error: PWL time must be non-negative"},
      {"V1 n1_m1_0_0 0 1.1\nI1 n1_m1_0_0 0 PWL(0,1,1n,zz)\n",
       "parse error: line 2: parse error: bad SPICE value 'zz'"},
      {"V1 n1_m1_0_0 0 1.1\nI1 n1_m1_0_0 0 PWL)0 1(\n",
       "parse error: line 2: parse error: line 2: malformed PWL(...) body"},
      {"V1 n1_m1_0_0 0 1.1\nC1 0 0 1p\n",
       "parse error: line 2: capacitor between ground and ground"},
      {"V1 n1_m1_0_0 0 1.1\nC1 n1_m1_0_0 0 -1p\n",
       "parse error: line 2: parse error: capacitor C1 must be positive, got -0.000000"},
      {"V1 n1_m1_0_0 0 1.1\nC1 n1_m1_0_0 0\n",
       "parse error: line 2: capacitor needs 'Cname a b value'"},
      {"V1 n1_m1_0_0 0 1.1\nC1 n1_m1_0_0 0 1y\n",
       "parse error: line 2: parse error: unknown SPICE suffix 'y' in '1y'"},
      {"V1 n1_m1_0_0 0 1.1\nV2 0 0 1\n",
       "parse error: line 2: voltage source must connect a PG node to ground"},
      {"V1 n1_m1_0_0 0 1.1\nV2 n1_m1_0_0 n1_m1_1_0 1\n",
       "parse error: line 2: voltage source must connect a PG node to ground"},
      {"V1 n1_m1_0_0 0 1.1\nV2 n1_m1_0_0 0\n",
       "parse error: line 2: voltage source needs 'Vname n+ n- value'"},
      {"V1 n1_m1_0_0 0 1.1\nV2 n1_m1_0_0 0 1.1V\n",
       "parse error: line 2: parse error: unknown SPICE suffix 'v' in '1.1V'"},
      {"V1 n1_m1_0_0 0 1.1\nV2 n1_m1_0_0 0 nan\n",
       "parse error: line 2: parse error: bad SPICE value 'nan'"},
      {"* header\n\n* more\nV1 n1_m1_0_0 0 1.1\nR1 n1_m1_0_0\n+ n1_m1_1_0\n\n"
       "+ 0.5\nR2 n1_m1_1_0\n+ n1_m1_2_0\n* between\n+ bad\n",
       "parse error: line 9: parse error: bad SPICE value 'bad'"},
      {"* header\r\nV1 n1_m1_0_0 0 1.1\r\n+\r\n"
       "R1 n1_m1_0_0 n1_m1_1_0 0.5 $ trailing\r\nR2 n1_m1_1_0 0 x\r\n",
       "parse error: line 5: parse error: bad SPICE value 'x'"},
      {"V1 n1_m1_0_0 0 1.1\nR1 n1_m1_0_0 n1_m1_1_0 1\nR2 n1_m1_1_0 0 -3",
       "parse error: line 3: parse error: resistor R2 must be positive, got -3.000000"},
      {"",
       "parse error: netlist has no voltage source: the PG system is singular"},
      {"* only comments\n\n",
       "parse error: netlist has no voltage source: the PG system is singular"},
      {"R1 n1_m1_0_0 n1_m1_1_0 1\nI1 n1_m1_1_0 0 1m\n",
       "parse error: netlist has no voltage source: the PG system is singular"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.deck);
    try {
      parse_string(c.deck);
      ADD_FAILURE() << "expected ParseError";
    } catch (const ParseError& e) {
      EXPECT_STREQ(e.what(), c.message);
    }
  }
}

TEST(Parser, CrlfAndMissingFinalNewlineParseIdentically) {
  const std::string lf = kDeck;
  std::string crlf;
  for (char c : lf) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  const std::string unterminated = lf.substr(0, lf.size() - 1);
  ASSERT_EQ(unterminated.back(), 'd');
  const Netlist reference = parse_string(lf);
  for (const std::string& deck : {crlf, unterminated, crlf.substr(0, crlf.size() - 2)}) {
    const Netlist again = parse_string(deck);
    testing_support::expect_same_netlist(reference, again);
    for (NodeId id = 0; id < reference.num_nodes(); ++id) {
      EXPECT_EQ(again.node_name(id), reference.node_name(id));
    }
  }
}

TEST(Parser, StreamAndFileMatchString) {
  const Netlist reference = parse_string(kDeck);
  std::istringstream in(kDeck);
  testing_support::expect_same_netlist(reference, parse(in));
  const std::filesystem::path path = std::filesystem::temp_directory_path() /
                                     ("irf_spice_" + std::to_string(::getpid()) + ".sp");
  {
    std::ofstream out(path, std::ios::binary);
    out << kDeck;
  }
  testing_support::expect_same_netlist(reference, parse_file(path.string()));
  std::filesystem::remove(path);
}

// A path that cannot be read is an irf::Error naming it. A directory opens
// on Linux, so it fails at the read, not as a deck with no voltage source.
TEST(Parser, UnreadablePathsNameThePath) {
  const std::filesystem::path dir = std::filesystem::temp_directory_path();
  const std::string missing = (dir / "irf_no_such_deck.sp").string();
  for (const std::string& path : {dir.string(), missing}) {
    try {
      parse_file(path);
      ADD_FAILURE() << "expected irf::Error for " << path;
    } catch (const ParseError& e) {
      ADD_FAILURE() << "read failure reported as a parse error: " << e.what();
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
    }
  }
}

TEST(Parser, RejectsUnknownElement) {
  EXPECT_THROW(parse_string("C1 n1_m1_0_0 0 1p\n"), ParseError);
  EXPECT_THROW(parse_string(".weird\n"), ParseError);
}

TEST(Parser, RejectsResistorToNowhere) {
  EXPECT_THROW(parse_string("R1 0 0 1.0\nV1 n1_m1_0_0 0 1.1\n"), ParseError);
}

TEST(Writer, RoundTripPreservesElements) {
  Netlist net = parse_string(kDeck);
  Netlist again = parse_string(write_string(net));
  testing_support::expect_same_netlist(net, again);
  EXPECT_EQ(again.num_nodes(), net.num_nodes());
  ASSERT_EQ(again.resistors().size(), net.resistors().size());
  for (std::size_t i = 0; i < net.resistors().size(); ++i) {
    EXPECT_DOUBLE_EQ(again.resistors()[i].ohms, net.resistors()[i].ohms);
  }
  ASSERT_EQ(again.current_sources().size(), net.current_sources().size());
  EXPECT_DOUBLE_EQ(again.current_sources()[0].amps, net.current_sources()[0].amps);
  EXPECT_DOUBLE_EQ(again.voltage_sources()[0].volts, net.voltage_sources()[0].volts);
}

TEST(Topology, AdjacencyAndPads) {
  Netlist net = parse_string(kDeck);
  CircuitTopology topo(net);
  EXPECT_EQ(topo.num_nodes(), 4);
  EXPECT_EQ(topo.pad_nodes().size(), 1u);
  EXPECT_TRUE(topo.all_nodes_reach_pad());
  NodeId pad = topo.pad_nodes()[0];
  EXPECT_TRUE(topo.is_pad(pad));
  EXPECT_DOUBLE_EQ(topo.pad_voltage()[pad], 1.1);
  // The middle M1 node has two wires.
  NodeId mid = *net.find_node("n1_m1_2000_0");
  EXPECT_EQ(topo.wires_of(mid).size(), 2u);
}

TEST(Topology, DetectsUnreachableNode) {
  Netlist net = parse_string(
      "V1 n1_m1_0_0 0 1.1\n"
      "R1 n1_m1_0_0 n1_m1_2000_0 1\n"
      "R2 n1_m1_8000_0 n1_m1_10000_0 1\n");  // island
  CircuitTopology topo(net);
  EXPECT_FALSE(topo.all_nodes_reach_pad());
}

TEST(Topology, LoadCurrentAccumulates) {
  Netlist net = parse_string(
      "V1 n1_m1_0_0 0 1.1\n"
      "R1 n1_m1_0_0 n1_m1_2000_0 1\n"
      "I1 n1_m1_2000_0 0 1m\n"
      "I2 n1_m1_2000_0 0 2m\n");
  CircuitTopology topo(net);
  NodeId loaded = *net.find_node("n1_m1_2000_0");
  EXPECT_NEAR(topo.load_current()[loaded], 3e-3, 1e-15);
}

}  // namespace
}  // namespace irf::spice
