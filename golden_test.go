package thermbal

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"thermbal/internal/experiment"
	"thermbal/internal/request"
)

// TestExpmDocumentGolden pins the run document digest — SHA-256 of the
// body the service serves — of two expm configurations. Under expm the
// engine's span-exact accounting makes the bits depend on how the tick
// loop is partitioned into macro-steps and plain ticks, so these digests
// catch a partition drift in the event-horizon fast path. The
// manycore-64 entry is the same configuration and digest as the bench
// module's golden manycore-64 expm case.
func TestExpmDocumentGolden(t *testing.T) {
	cases := []struct {
		req    request.Request
		digest string
	}{
		{request.Request{Scenario: "sdr-radio", Policy: "thermal-balance", Delta: 3, Package: "mobile", Integrator: "expm"},
			"05976539d4e278edc56b1b9737d3c4db304629789f6f8e0b9f90a38b0ae55446"},
		{request.Request{Scenario: "manycore-64", Policy: "thermal-balance", Delta: 2, Package: "mobile",
			WarmupS: 1, MeasureS: 2, Integrator: "expm"},
			"1af09adb0e99f9f8a34da67ede19da47fc973c4a413b0502d7bc9d29eb2162ec"},
	}
	for _, c := range cases {
		canon, rc, err := request.Canonicalize(c.req)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := experiment.Run(rc)
		if err != nil {
			t.Fatal(err)
		}
		body, err := request.EncodeDoc(request.NewRunDoc(canon, res))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(body)
		if got := hex.EncodeToString(sum[:]); got != c.digest {
			t.Errorf("%s/%s: document digest %s, golden %s", canon.Scenario, canon.Integrator, got, c.digest)
		}
	}
}

// TestWriteAllFiguresGolden pins the SHA-256 of every paper artifact
// the facade renders: Tables 1-2, Figure 2 and the Figure 7-11 sweeps
// on both packages.
func TestWriteAllFiguresGolden(t *testing.T) {
	const digest = "c100f79f93460d067612e1b1dd8e63e6012ddb1b04eefac30f76a9b2c10e929d"
	var b bytes.Buffer
	if err := WriteAllFigures(&b); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b.Bytes())
	if got := hex.EncodeToString(sum[:]); got != digest {
		t.Errorf("WriteAllFigures digest %s, golden %s:\n%s", got, digest, b.String())
	}
}
