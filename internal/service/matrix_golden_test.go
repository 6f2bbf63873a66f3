package service

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"testing"
)

// TestMatrixBodyGolden pins the SHA-256 of the synchronous /matrix body
// for three fixed sweeps on the real engine: a two-policy Euler sweep,
// every policy over two scenarios under expm, and a sweep overriding
// queue_cap and the migration mechanism. The sweep document is a
// content-addressed, stored and provable body, so any change to these
// bytes must be deliberate.
func TestMatrixBodyGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body, digest string
	}{
		{"euler-eb-tb",
			`{"scenarios":["sdr-radio"],"policies":["eb","tb"],"delta":3,"warmup_s":0.5,"measure_s":1}`,
			"9415e4b8f945a1b0b497dd2901e3fdbd1fc032b2f941feeff3ed7486b6421786"},
		{"expm-all-policies",
			`{"scenarios":["sdr-radio","video-decoder"],"integrator":"expm","warmup_s":0.3,"measure_s":0.5}`,
			"11afc9f98e33ddf586320e1f95682bccb5119a484b5979e3f7ca4ded88551f3e"},
		{"queue-cap-mechanism",
			`{"scenarios":["pipeline-d4"],"policies":["tb","sg"],"delta":2,"package":"hp","queue_cap":5,"mechanism":"recreation","warmup_s":0.5,"measure_s":1}`,
			"514431818d3c75376820830434027d69018e6c3c5059d236b6c835d332af6ddd"},
	}
	for _, c := range cases {
		resp, b := do(t, http.MethodPost, ts.URL+"/matrix", c.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", c.name, resp.StatusCode, b)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != c.digest {
			t.Errorf("%s: /matrix body digest %s, golden %s", c.name, got, c.digest)
		}
	}
}
