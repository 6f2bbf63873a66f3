package main

import (
	"strings"
	"testing"
)

// A non-finite float flag would compare false against every request
// and silently disable the bound it names; each must be refused with
// exit status 2 and a message naming the flag.
func TestNonFiniteFloatFlagsExit(t *testing.T) {
	for _, flagName := range []string{"max-sync", "max-pending-sim-s", "quota-rps", "quota-burst"} {
		for _, v := range []string{"NaN", "Inf", "-Inf"} {
			var stderr strings.Builder
			opts, code := parseFlags([]string{"-" + flagName, v}, &stderr)
			if opts != nil || code != 2 {
				t.Errorf("-%s %s: options %v, exit %d; want refused with exit 2", flagName, v, opts, code)
			}
			if !strings.Contains(stderr.String(), "-"+flagName+" ") {
				t.Errorf("-%s %s: stderr %q does not name the flag", flagName, v, stderr.String())
			}
		}
	}
}

func TestParseFlags(t *testing.T) {
	var stderr strings.Builder
	opts, code := parseFlags([]string{
		"-addr", "127.0.0.1:0", "-max-sims", "3", "-max-sync", "30", "-max-pending-sim-s", "-1",
		"-quota-rps", "2.5", "-quota-burst", "4", "-data-dir", "d", "-store-max-bytes", "1024",
	}, &stderr)
	if opts == nil {
		t.Fatalf("finite flags refused (exit %d): %s", code, stderr.String())
	}
	c := opts.cfg
	if opts.addr != "127.0.0.1:0" || opts.dataDir != "d" || opts.storeMax != 1024 ||
		c.MaxSims != 3 || c.MaxSyncSimS != 30 || c.MaxPendingSimS != -1 || c.QuotaRPS != 2.5 || c.QuotaBurst != 4 {
		t.Errorf("parsed options = %+v", *opts)
	}

	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-help"}, 0},
		{[]string{"-max-sims", "many"}, 2},
		{[]string{"-no-such-flag"}, 2},
	} {
		stderr.Reset()
		if opts, code := parseFlags(tc.args, &stderr); opts != nil || code != tc.code {
			t.Errorf("%v: options %v, exit %d; want nil, exit %d", tc.args, opts, code, tc.code)
		}
	}
}
