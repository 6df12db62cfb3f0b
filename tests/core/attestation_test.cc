/** Tests for the dynamic remote-attestation protocol. */

#include "test_fixtures.hh"

namespace cronus::core
{
namespace
{

using testing::CronusTest;

class AttestationTest : public CronusTest
{
  protected:
    void
    SetUp() override
    {
        CronusTest::SetUp();
        handle = makeGpuEnclave().value();
        challenge = toBytes("client-nonce-123");
        auto r = system->attest(handle, challenge);
        ASSERT_TRUE(r.isOk()) << r.status().toString();
        report = r.value();
        expect = system->expectationFor(handle);
        expect.challenge = challenge;
    }

    AppHandle handle;
    Bytes challenge;
    SignedAttestationReport report;
    ClientExpectation expect;
};

TEST_F(AttestationTest, HonestReportVerifies)
{
    EXPECT_TRUE(verifyAttestation(report, expect).isOk());
}

TEST_F(AttestationTest, TamperedEnclaveMeasurementRejected)
{
    auto bad = report;
    bad.report.enclaveMeasurement[0] ^= 1;
    /* Either the signature check or the measurement check fires. */
    EXPECT_FALSE(verifyAttestation(bad, expect).isOk());
}

TEST_F(AttestationTest, WrongExpectedMosRejected)
{
    auto wrong = expect;
    wrong.expectedMos[5] ^= 0xff;
    EXPECT_EQ(verifyAttestation(report, wrong).code(),
              ErrorCode::IntegrityViolation);
}

TEST_F(AttestationTest, WrongDtRejected)
{
    /* A client expecting a different hardware configuration
     * (misconfigured accelerator defense). */
    auto wrong = expect;
    wrong.expectedDt[0] ^= 1;
    EXPECT_EQ(verifyAttestation(report, wrong).code(),
              ErrorCode::IntegrityViolation);
}

TEST_F(AttestationTest, StaleChallengeRejected)
{
    auto wrong = expect;
    wrong.challenge = toBytes("old-nonce");
    EXPECT_EQ(verifyAttestation(report, wrong).code(),
              ErrorCode::AuthFailed);
}

TEST_F(AttestationTest, ForgedAtkRejected)
{
    /* An attacker substitutes their own AtK: the RoT endorsement
     * does not verify. */
    auto bad = report;
    crypto::KeyPair evil = crypto::deriveKeyPair(toBytes("evil"));
    bad.atkPublicKey = evil.pub.toBytes();
    bad.reportSignature = crypto::sign(evil,
                                       bad.report.serialize());
    EXPECT_EQ(verifyAttestation(bad, expect).code(),
              ErrorCode::AuthFailed);
}

TEST_F(AttestationTest, FabricatedAcceleratorRejected)
{
    /* A fabricated device key lacks the vendor endorsement. */
    auto wrong = expect;
    crypto::KeyPair fake_vendor =
        crypto::deriveKeyPair(toBytes("fake-vendor"));
    wrong.deviceEndorsement = crypto::sign(
        fake_vendor, report.report.devicePublicKey);
    EXPECT_EQ(verifyAttestation(report, wrong).code(),
              ErrorCode::AuthFailed);
}

TEST_F(AttestationTest, WrongPlatformRootRejected)
{
    auto wrong = expect;
    wrong.platformRoot =
        crypto::deriveKeyPair(toBytes("other-cloud")).pub;
    EXPECT_EQ(verifyAttestation(report, wrong).code(),
              ErrorCode::AuthFailed);
}

TEST_F(AttestationTest, ReportCoversEveryDeviceKind)
{
    auto attest_handle = [&](AppHandle h) {
        auto r = system->attest(h, challenge);
        ASSERT_TRUE(r.isOk()) << r.status().toString();
        auto e = system->expectationFor(h);
        e.challenge = challenge;
        EXPECT_TRUE(verifyAttestation(r.value(), e).isOk());
    };
    attest_handle(makeCpuEnclave().value());
    attest_handle(makeNpuEnclave().value());
}

TEST_F(AttestationTest, WireFormRoundTripsAndVerifies)
{
    Bytes wire = report.toWire();
    auto back = SignedAttestationReport::fromWire(wire);
    ASSERT_TRUE(back.isOk()) << back.status().toString();
    EXPECT_TRUE(verifyAttestation(back.value(), expect).isOk());
}

TEST_F(AttestationTest, WireByteFlipsNeverVerify)
{
    Bytes wire = report.toWire();
    Rng rng(77);
    for (int trial = 0; trial < 32; ++trial) {
        Bytes bad = wire;
        bad[rng.nextBelow(bad.size())] ^=
            uint8_t(1 << rng.nextBelow(8));
        auto parsed = SignedAttestationReport::fromWire(bad);
        if (!parsed.isOk())
            continue;  /* framing rejected: fine */
        EXPECT_FALSE(
            verifyAttestation(parsed.value(), expect).isOk())
            << "flipped byte accepted on trial " << trial;
    }
}

TEST_F(AttestationTest, WireRejectsTruncationAndTrailing)
{
    Bytes wire = report.toWire();
    Bytes truncated(wire.begin(), wire.end() - 10);
    EXPECT_FALSE(SignedAttestationReport::fromWire(truncated)
                     .isOk());
    Bytes trailing = wire;
    trailing.push_back(0);
    EXPECT_FALSE(SignedAttestationReport::fromWire(trailing)
                     .isOk());
}

TEST_F(AttestationTest, DifferentPartitionsHaveDifferentMosHashes)
{
    /* R3.2: each service trusts only its own mOS. Verify the
     * measurements actually differ across partitions. */
    auto cpu = makeCpuEnclave().value();
    auto gpu_mos = handle.host->mosMeasurement().value();
    auto cpu_mos = cpu.host->mosMeasurement().value();
    EXPECT_NE(crypto::digestHex(gpu_mos), crypto::digestHex(cpu_mos));
}

} // namespace
} // namespace cronus::core
