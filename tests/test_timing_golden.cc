/**
 * @file
 * Golden timing table: every RunResult counter and the hash of one
 * checkpoint image for 4 workloads x {N, S, U, CC} x both machines,
 * plus one row for each configuration path of the shared timing core
 * (exception-style dispatch, informing checkpoints, gshare, extended
 * MSHR lifetime, wrong-path probes, a non-default replay penalty).
 * The expected values were produced by an earlier build of the
 * simulator with the runner in golden_rows.hh; any change to either
 * model's timing or checkpoint layout moves at least one of them.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "golden_rows.hh"

namespace
{

using namespace imo;
using namespace imo::testhelpers;
using M = core::InformingMode;
using V = GoldenVariant;

struct GoldenRow
{
    GoldenSpec spec;
    GoldenFigures want;
};

const GoldenRow goldenTable[] = {
    {{"ooo", "compress", M::None, V::Plain},
     {126206, 29708, 0, 452310, 22806, 3300,
      2010, 0, 0, 2200, 549, 0, 496, 0, 1,
      0xb2aca9200d3c5159ull}},
    {{"ooo", "compress", M::TrapSingle, V::Plain},
     {155873, 51819, 22110, 563466, 8207, 3300,
      2010, 2010, 0, 2200, 549, 0, 0, 0, 2,
      0x2cabdfb216bb5b5bull}},
    {{"ooo", "compress", M::TrapUnique, V::Plain},
     {156955, 55118, 22110, 564320, 8382, 3300,
      2010, 2010, 0, 2200, 549, 0, 0, 0, 2,
      0xef54a9dd1e9d67c6ull}},
    {{"ooo", "compress", M::CondCode, V::Plain},
     {157872, 55118, 22110, 568790, 7580, 3300,
      2010, 0, 0, 5500, 2559, 0, 0, 0, 2,
      0x5d15c054c09ebd8bull}},
    {{"ooo", "espresso", M::None, V::Plain},
     {62244, 25490, 0, 142399, 81087, 2247,
      512, 0, 0, 6000, 1892, 0, 35, 0, 1,
      0x549398b582dcc6b9ull}},
    {{"ooo", "espresso", M::TrapSingle, V::Plain},
     {62330, 31123, 5632, 142521, 75676, 2247,
      512, 512, 0, 6000, 1892, 0, 35, 0, 1,
      0x1796ecb1bd46950full}},
    {{"ooo", "espresso", M::TrapUnique, V::Plain},
     {62690, 33369, 5632, 143169, 74222, 2247,
      512, 512, 0, 6000, 1892, 0, 35, 0, 1,
      0xb668a2a9f35e2c25ull}},
    {{"ooo", "espresso", M::CondCode, V::Plain},
     {62841, 33369, 5632, 144026, 73969, 2247,
      512, 0, 0, 8247, 2404, 0, 34, 0, 1,
      0x69760ca0cd6c7f85ull}},
    {{"ooo", "hydro2d", M::None, V::Plain},
     {817049, 419337, 0, 1849336, 999523, 161280,
      16256, 0, 0, 32257, 2, 0, 88712, 0, 20,
      0xb4820bcf80811913ull}},
    {{"ooo", "hydro2d", M::TrapSingle, V::Plain},
     {899776, 598154, 178816, 1824682, 1176268, 161280,
      16256, 16256, 0, 32257, 2, 0, 56475, 0, 29,
      0xc9b6c7217f3e470dull}},
    {{"ooo", "hydro2d", M::TrapUnique, V::Plain},
     {964028, 759433, 178816, 2049372, 1047307, 161280,
      16256, 16256, 0, 32257, 2, 0, 56472, 0, 37,
      0x03e07ca126dd6d8eull}},
    {{"ooo", "hydro2d", M::CondCode, V::Plain},
     {956471, 759433, 178816, 1962635, 1103816, 161280,
      16256, 0, 0, 193537, 16258, 0, 56350, 0, 37,
      0x823f54a065b4b873ull}},
    {{"ooo", "tomcatv", M::None, V::Plain},
     {641710, 179975, 0, 2045454, 341411, 65024,
      32640, 0, 0, 16385, 131, 0, 48672, 0, 8,
      0xb970f94050630c16ull}},
    {{"ooo", "tomcatv", M::TrapSingle, V::Plain},
     {754000, 539016, 359040, 2238915, 238069, 65024,
      32640, 32640, 0, 16385, 131, 0, 32288, 0, 26,
      0xd4189820124124fcull}},
    {{"ooo", "tomcatv", M::TrapUnique, V::Plain},
     {753999, 604039, 359040, 2173984, 237973, 65024,
      32640, 32640, 0, 16385, 131, 0, 32288, 0, 30,
      0x28d4cf326b7472d7ull}},
    {{"ooo", "tomcatv", M::CondCode, V::Plain},
     {766383, 604039, 359040, 2202528, 258965, 65024,
      32640, 0, 0, 81409, 32771, 0, 32288, 0, 30,
      0x217557c061bd45b9ull}},
    {{"inorder", "compress", M::None, V::Plain},
     {122563, 29708, 0, 390771, 69773, 3300,
      2133, 0, 2133, 2200, 549, 0, 0, 0, 1,
      0x2fdb3d91bc36a774ull}},
    {{"inorder", "compress", M::TrapSingle, V::Plain},
     {124076, 53172, 23463, 390771, 52361, 3300,
      2133, 2133, 0, 2200, 549, 0, 0, 0, 2,
      0x6bc7ab92f0e6dc4aull}},
    {{"inorder", "compress", M::TrapUnique, V::Plain},
     {124261, 56471, 23463, 388638, 51935, 3300,
      2133, 2133, 0, 2200, 549, 0, 0, 0, 2,
      0xe5b17be12808a4b7ull}},
    {{"inorder", "compress", M::CondCode, V::Plain},
     {124527, 56471, 23463, 390771, 50866, 3300,
      2133, 0, 0, 5500, 2682, 0, 0, 0, 2,
      0xed0e3cde2c4db0dbull}},
    {{"inorder", "espresso", M::None, V::Plain},
     {52829, 25490, 0, 104124, 81702, 2247,
      564, 0, 564, 6000, 1892, 0, 0, 0, 1,
      0x59abe589f46b055eull}},
    {{"inorder", "espresso", M::TrapSingle, V::Plain},
     {53194, 31695, 6204, 104124, 76957, 2247,
      564, 564, 0, 6000, 1892, 0, 0, 0, 1,
      0x41d660e018f6976eull}},
    {{"inorder", "espresso", M::TrapUnique, V::Plain},
     {53193, 33941, 6204, 103560, 75271, 2247,
      564, 564, 0, 6000, 1892, 0, 0, 0, 1,
      0xe29d5907ef0e0e70ull}},
    {{"inorder", "espresso", M::CondCode, V::Plain},
     {53037, 33941, 6204, 104124, 74083, 2247,
      564, 0, 0, 8247, 2456, 0, 0, 0, 1,
      0xf603da5365d9bc24ull}},
    {{"inorder", "hydro2d", M::None, V::Plain},
     {1052030, 419337, 0, 1869685, 1919098, 161280,
      24257, 0, 8063, 32257, 2, 0, 80640, 0, 20,
      0x0beeb0ad56096d0aull}},
    {{"inorder", "hydro2d", M::TrapSingle, V::Plain},
     {1277192, 686165, 266827, 1868967, 2553636, 161280,
      24257, 24257, 0, 32257, 2, 0, 72510, 0, 34,
      0x658a8e1b4ade624full}},
    {{"inorder", "hydro2d", M::TrapUnique, V::Plain},
     {1293257, 847444, 266827, 1885030, 2440554, 161280,
      24257, 24257, 0, 32257, 2, 0, 0, 0, 42,
      0xb281dfafbd140ca2ull}},
    {{"inorder", "hydro2d", M::CondCode, V::Plain},
     {1261253, 847444, 266827, 1885033, 2312535, 161280,
      24257, 0, 0, 193537, 24259, 0, 0, 0, 42,
      0xbe8d0229c8ff22a5ull}},
    {{"inorder", "tomcatv", M::None, V::Plain},
     {611509, 179975, 0, 1531654, 734407, 65024,
      32640, 0, 16256, 16385, 131, 0, 32384, 0, 8,
      0xd955730fdc0e5ddfull}},
    {{"inorder", "tomcatv", M::TrapSingle, V::Plain},
     {905750, 539016, 359040, 1916681, 1167303, 65024,
      32640, 32640, 0, 16385, 131, 0, 16128, 0, 26,
      0x8b86dada907dc82eull}},
    {{"inorder", "tomcatv", M::TrapUnique, V::Plain},
     {934421, 604039, 359040, 1965956, 1167689, 65024,
      32640, 32640, 0, 16385, 131, 0, 0, 0, 30,
      0x6d1f052ef3471008ull}},
    {{"inorder", "tomcatv", M::CondCode, V::Plain},
     {848565, 604039, 359040, 1944835, 845386, 65024,
      32640, 0, 0, 81409, 32771, 0, 0, 0, 30,
      0xd57bf4aaa57e6be5ull}},
    {{"ooo", "compress", M::TrapSingle, V::ExceptionStyle},
     {156201, 51819, 22110, 563370, 9615, 3300,
      2010, 2010, 0, 2200, 549, 0, 0, 0, 2,
      0x5859342a25530d3eull}},
    {{"ooo", "compress", M::TrapSingle, V::InformingCheckpoint},
     {155873, 51819, 22110, 563466, 8207, 3300,
      2010, 2010, 0, 2200, 549, 0, 0, 0, 2,
      0xb8cfd9b3749c5a67ull}},
    {{"ooo", "compress", M::TrapSingle, V::Gshare},
     {155893, 51819, 22110, 563524, 8229, 3300,
      2010, 2010, 0, 2200, 566, 0, 0, 0, 2,
      0x8b6cabc0b0536cf7ull}},
    {{"inorder", "compress", M::TrapSingle, V::Gshare},
     {124161, 53172, 23463, 390771, 52701, 3300,
      2133, 2133, 0, 2200, 566, 0, 0, 0, 2,
      0xbb0cf07e889ced3full}},
    {{"ooo", "compress", M::TrapSingle, V::ExtendedMshr},
     {155873, 51819, 22110, 563466, 8207, 3300,
      2010, 2010, 0, 2200, 549, 0, 0, 0, 2,
      0xf30f3930f57d1ba8ull}},
    {{"inorder", "compress", M::TrapSingle, V::ExtendedMshr},
     {124076, 53172, 23463, 390771, 52361, 3300,
      2133, 2133, 0, 2200, 549, 0, 0, 0, 2,
      0xfd336a1ec66a8424ull}},
    {{"ooo", "compress", M::TrapSingle, V::WrongPathProbes},
     {155873, 51819, 22110, 563466, 8207, 3300,
      2010, 2010, 0, 2200, 549, 0, 551, 78, 0,
      0x99993f7f67aa3cdaull}},
    {{"inorder", "compress", M::TrapSingle, V::ReplayPenalty},
     {124940, 53172, 23463, 390771, 55817, 3300,
      2133, 2133, 0, 2200, 549, 0, 0, 0, 2,
      0xbfc46c80e4abaa45ull}},
    {{"ooo", "hydro2d", M::TrapSingle, V::ExceptionStyle},
     {925090, 598154, 178816, 1829170, 1273036, 161280,
      16256, 16256, 0, 32257, 2, 0, 56349, 0, 29,
      0x4eff2602f9a19367ull}},
    {{"ooo", "hydro2d", M::TrapSingle, V::InformingCheckpoint},
     {1004154, 598154, 178816, 2242194, 1176268, 161280,
      16256, 16256, 0, 32257, 2, 0, 56390, 0, 29,
      0x87315fc1d6172d9dull}},
    {{"ooo", "hydro2d", M::TrapSingle, V::Gshare},
     {899808, 598154, 178816, 1824754, 1176324, 161280,
      16256, 16256, 0, 32257, 10, 0, 56471, 0, 29,
      0x90a57ecdc6ba9763ull}},
    {{"inorder", "hydro2d", M::TrapSingle, V::Gshare},
     {1277232, 686165, 266827, 1868967, 2553796, 161280,
      24257, 24257, 0, 32257, 10, 0, 72510, 0, 34,
      0x37f9ac48b7a4de8full}},
    {{"ooo", "hydro2d", M::TrapSingle, V::ExtendedMshr},
     {899776, 598154, 178816, 1824682, 1176268, 161280,
      16256, 16256, 0, 32257, 2, 0, 56475, 0, 29,
      0x3a2c272ef6266212ull}},
    {{"inorder", "hydro2d", M::TrapSingle, V::ExtendedMshr},
     {1277192, 686165, 266827, 1868967, 2553636, 161280,
      24257, 24257, 0, 32257, 2, 0, 72510, 0, 34,
      0x9d7d75508812e472ull}},
    {{"ooo", "hydro2d", M::TrapSingle, V::WrongPathProbes},
     {899776, 598154, 178816, 1824682, 1176268, 161280,
      16256, 16256, 0, 32257, 2, 0, 56476, 0, 0,
      0x1a1486fc6e1ab8c0ull}},
    {{"inorder", "hydro2d", M::TrapSingle, V::ReplayPenalty},
     {1341583, 686165, 266827, 1869491, 2810676, 161280,
      24257, 24257, 0, 32257, 2, 0, 72510, 0, 34,
      0x6e000f90c7715d02ull}},
};

const char *const variantNames[] = {
    "Plain", "ExceptionStyle", "InformingCheckpoint", "Gshare",
    "ExtendedMshr", "WrongPathProbes", "ReplayPenalty"};

std::string
rowName(const GoldenSpec &s)
{
    return std::string(s.machine) + "_" + s.workload + "_" +
           core::informingModeName(s.mode) + "_" +
           variantNames[static_cast<int>(s.variant)];
}

void
PrintTo(const GoldenRow &row, std::ostream *os)
{
    *os << rowName(row.spec);
}

class TimingGolden : public ::testing::TestWithParam<GoldenRow>
{
};

TEST_P(TimingGolden, MatchesTable)
{
    const GoldenRow &row = GetParam();
    const GoldenFigures got = runGoldenRow(row.spec);
    EXPECT_EQ(got.cycles, row.want.cycles);
    EXPECT_EQ(got.instructions, row.want.instructions);
    EXPECT_EQ(got.handlerInstructions, row.want.handlerInstructions);
    EXPECT_EQ(got.cacheStallSlots, row.want.cacheStallSlots);
    EXPECT_EQ(got.otherStallSlots, row.want.otherStallSlots);
    EXPECT_EQ(got.dataRefs, row.want.dataRefs);
    EXPECT_EQ(got.l1Misses, row.want.l1Misses);
    EXPECT_EQ(got.traps, row.want.traps);
    EXPECT_EQ(got.replayTraps, row.want.replayTraps);
    EXPECT_EQ(got.condBranches, row.want.condBranches);
    EXPECT_EQ(got.mispredicts, row.want.mispredicts);
    EXPECT_EQ(got.mshrFullRejects, row.want.mshrFullRejects);
    EXPECT_EQ(got.bankConflicts, row.want.bankConflicts);
    EXPECT_EQ(got.squashInvalidations, row.want.squashInvalidations);
    EXPECT_EQ(got.checkpointsTaken, row.want.checkpointsTaken);
    EXPECT_EQ(got.imageHash, row.want.imageHash);
}

INSTANTIATE_TEST_SUITE_P(
    Rows, TimingGolden, ::testing::ValuesIn(goldenTable),
    [](const ::testing::TestParamInfo<GoldenRow> &info) {
        return rowName(info.param.spec);
    });

} // namespace
