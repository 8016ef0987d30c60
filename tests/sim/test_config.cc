/**
 * @file
 * Tests for SSD configuration and geometry scaling.
 */

#include <gtest/gtest.h>

#include "sim/config.hh"

namespace zombie
{
namespace
{

TEST(SystemKind, NameRoundTrip)
{
    for (SystemKind k :
         {SystemKind::Baseline, SystemKind::MqDvp, SystemKind::LruDvp,
          SystemKind::LxSsd, SystemKind::Dedup, SystemKind::DvpDedup,
          SystemKind::Ideal}) {
        EXPECT_EQ(systemKindFromString(toString(k)), k);
    }
}

TEST(SystemKind, AliasesAccepted)
{
    EXPECT_EQ(systemKindFromString("mq"), SystemKind::MqDvp);
    EXPECT_EQ(systemKindFromString("mq-dvp"), SystemKind::MqDvp);
    EXPECT_EQ(systemKindFromString("lx-ssd"), SystemKind::LxSsd);
    EXPECT_EQ(systemKindFromString("dvp-dedup"), SystemKind::DvpDedup);
}

TEST(SystemKindDeath, UnknownNameIsFatal)
{
    EXPECT_EXIT((void)systemKindFromString("magic"),
                testing::ExitedWithCode(1), "unknown system");
}

TEST(SystemKind, FeatureMatrix)
{
    EXPECT_FALSE(usesHashEngine(SystemKind::Baseline));
    EXPECT_TRUE(usesHashEngine(SystemKind::MqDvp));
    EXPECT_TRUE(usesHashEngine(SystemKind::Dedup));

    EXPECT_FALSE(usesDvp(SystemKind::Baseline));
    EXPECT_FALSE(usesDvp(SystemKind::Dedup));
    EXPECT_TRUE(usesDvp(SystemKind::MqDvp));
    EXPECT_TRUE(usesDvp(SystemKind::LruDvp));
    EXPECT_TRUE(usesDvp(SystemKind::LxSsd));
    EXPECT_TRUE(usesDvp(SystemKind::DvpDedup));
    EXPECT_TRUE(usesDvp(SystemKind::Ideal));

    EXPECT_TRUE(usesDedup(SystemKind::Dedup));
    EXPECT_TRUE(usesDedup(SystemKind::DvpDedup));
    EXPECT_FALSE(usesDedup(SystemKind::MqDvp));
}

TEST(SsdConfig, ForFootprintKeepsTableIStructure)
{
    const SsdConfig cfg =
        SsdConfig::forFootprint(1'000'000, SystemKind::MqDvp);
    EXPECT_EQ(cfg.geom.channels(), 8u);
    EXPECT_EQ(cfg.geom.chipsPerChannel(), 8u);
    EXPECT_EQ(cfg.geom.pagesPerBlock(), 256u);
    EXPECT_GE(cfg.geom.blocksPerPlane(), 16u);
    // Physical capacity must cover footprint plus OP.
    EXPECT_GE(cfg.geom.totalPages(),
              static_cast<std::uint64_t>(1'000'000 * 1.15));
}

TEST(SsdConfig, SmallFootprintHitsStructuralFloor)
{
    const SsdConfig cfg =
        SsdConfig::forFootprint(10'000, SystemKind::Baseline);
    EXPECT_EQ(cfg.geom.diesPerChip(), 1u);
    EXPECT_EQ(cfg.geom.planesPerDie(), 1u);
    EXPECT_EQ(cfg.geom.blocksPerPlane(), 16u);
    // Logical space is grown to the drive so utilization (and GC
    // pressure) match the configured OP even for small traces.
    EXPECT_GT(cfg.logicalPages, 10'000u);
    EXPECT_NEAR(cfg.overProvisioning(), 0.15, 0.01);
}

TEST(SsdConfig, LargeFootprintScalesDiesBackUp)
{
    const SsdConfig cfg =
        SsdConfig::forFootprint(40'000'000, SystemKind::Baseline);
    EXPECT_GT(cfg.geom.diesPerChip() * cfg.geom.planesPerDie(), 1u);
    EXPECT_GE(cfg.geom.totalPages(), 46'000'000u);
}

TEST(SsdConfig, OverProvisioningParameter)
{
    const SsdConfig cfg =
        SsdConfig::forFootprint(1'000'000, SystemKind::Baseline, 0.30);
    EXPECT_GE(cfg.geom.totalPages(),
              static_cast<std::uint64_t>(1'000'000 * 1.30));
    EXPECT_NEAR(cfg.overProvisioning(), 0.30, 0.05);
}

TEST(SsdConfig, ResolvedGcPolicyFollowsSystem)
{
    SsdConfig cfg = SsdConfig::forFootprint(10'000, SystemKind::MqDvp);
    EXPECT_EQ(cfg.resolvedGcPolicy(), "popularity");
    cfg.system = SystemKind::Baseline;
    EXPECT_EQ(cfg.resolvedGcPolicy(), "greedy");
    cfg.system = SystemKind::Dedup;
    EXPECT_EQ(cfg.resolvedGcPolicy(), "greedy");
    cfg.gcPolicy = "greedy";
    cfg.system = SystemKind::MqDvp;
    EXPECT_EQ(cfg.resolvedGcPolicy(), "greedy"); // explicit override
}

TEST(SsdConfig, DescribeMentionsSystemAndPool)
{
    const SsdConfig cfg =
        SsdConfig::forFootprint(10'000, SystemKind::MqDvp);
    const std::string desc = cfg.describe();
    EXPECT_NE(desc.find("dvp"), std::string::npos);
    EXPECT_NE(desc.find("pool="), std::string::npos);
    EXPECT_NE(desc.find("8ch"), std::string::npos);
}

TEST(SsdConfig, DescribeShowsIdealPoolUnbounded)
{
    // Ideal's pool ignores mq.capacity, so the line must not show it.
    SsdConfig cfg = SsdConfig::forFootprint(10'000, SystemKind::Ideal);
    cfg.mq.capacity = 5000;
    const std::string desc = cfg.describe();
    EXPECT_NE(desc.find("pool=unbounded"), std::string::npos) << desc;
    EXPECT_EQ(desc.find("5000"), std::string::npos) << desc;
}

TEST(SsdConfigDeath, ValidateRejectsBadValues)
{
    SsdConfig cfg = SsdConfig::forFootprint(10'000, SystemKind::MqDvp);
    cfg.prefillFraction = 1.5;
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "prefillFraction");

    cfg = SsdConfig::forFootprint(10'000, SystemKind::MqDvp);
    cfg.gcPolicy = "bogus";
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "gcPolicy");
    cfg.gcPolicy = "wear:greedy";
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "gcPolicy");

    cfg = SsdConfig::forFootprint(10'000, SystemKind::MqDvp);
    cfg.logicalPages = cfg.geom.totalPages();
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "over-provisioning");
}

// A bounded pool of 0 entries is a user error; only the Ideal
// system's pool is unbounded.
TEST(MqDvpDeath, ZeroCapacityIsFatal)
{
    SsdConfig cfg = SsdConfig::forFootprint(10'000, SystemKind::MqDvp);
    cfg.mq.capacity = 0;
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "capacity");
}

TEST(LruDvpDeath, ZeroCapacityIsFatal)
{
    SsdConfig cfg = SsdConfig::forFootprint(10'000, SystemKind::LruDvp);
    cfg.mq.capacity = 0;
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "capacity");
}

TEST(SsdConfig, IdealAcceptsZeroCapacity)
{
    SsdConfig cfg = SsdConfig::forFootprint(10'000, SystemKind::Ideal);
    cfg.mq.capacity = 0;
    cfg.validate();
}

// The page tables store page numbers in 32 bits. The checks below
// only validate configs; none builds an Ssd, so nothing drive-sized
// is allocated.
TEST(SsdConfigDeath, DrivePastThe32BitCeilingIsFatal)
{
    // Table I structure: 2^17 pages per block-per-plane step, so
    // 32768 blocks per plane is exactly 2^32 pages, one too many.
    SsdConfig cfg = SsdConfig::forFootprint(10'000, SystemKind::MqDvp);
    cfg.geom = Geometry::tableI(32768);
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "drive of 4294967296 pages exceeds the 4294967295-page "
                "ceiling");

    EXPECT_EXIT(
        (void)SsdConfig::forFootprint(std::uint64_t{1} << 32,
                                      SystemKind::Baseline),
        testing::ExitedWithCode(1), "-page ceiling of 32-bit page");
}

TEST(SsdConfig, DriveBelowTheCeilingValidates)
{
    SsdConfig cfg = SsdConfig::forFootprint(10'000, SystemKind::MqDvp);
    cfg.geom = Geometry::tableI(32767);
    ASSERT_LT(cfg.geom.totalPages(), kMaxDrivePages);
    cfg.logicalPages = cfg.geom.totalPages() / 2;
    cfg.validate();
}

TEST(SsdConfigDeath, EmptyFootprintIsFatal)
{
    EXPECT_EXIT(
        (void)SsdConfig::forFootprint(0, SystemKind::Baseline),
        testing::ExitedWithCode(1), "empty footprint");
}

} // namespace
} // namespace zombie
