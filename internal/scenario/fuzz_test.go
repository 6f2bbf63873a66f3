package scenario

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzSpecValidate fuzzes the declarative-spec front door: arbitrary
// JSON in, and the contract is
//
//   - never panic (validation, canonicalization, compilation);
//   - reject ⇒ the error is deterministic (same bytes, same message);
//   - accept ⇒ canonicalization is stable and the spec round-trips
//     through JSON byte-for-byte, so the content address is a function
//     of the workload alone.
//
// Run the smoke via `make fuzz-smoke` (20 s), or longer locally with
// `go test ./internal/scenario -fuzz=FuzzSpecValidate`.
func FuzzSpecValidate(f *testing.F) {
	// Seed corpus: every builtin's exported spec, a generated spec, a
	// minimal valid spec, and representative invalid shapes so the
	// mutator starts near both sides of the accept/reject boundary.
	for _, s := range All() {
		b, err := json.Marshal(s.Spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	gen := Generate(3)
	if b, err := json.Marshal(gen); err == nil {
		f.Add(b)
	}
	if b, err := json.Marshal(validMinimalSpec()); err == nil {
		f.Add(b)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"graph":{"queues":[{"name":"q"}],"tasks":[{"name":"t","fse":2,"inputs":["q"],"core":0}],"source":{"queue":"q"},"sink":{"queue":"q"}}}`))
	f.Add([]byte(`{"spec_version":99}`))
	f.Add([]byte(`{"graph":{"queues":[{"name":"a"},{"name":"b"}],"tasks":[{"name":"x","fse":0.5,"inputs":["a","b"],"outputs":["b"],"core":0}],"source":{"queue":"a"},"sink":{"queue":"b"}}}`))
	f.Add([]byte(`{"platform":{"cores":2,"tiles":[{"count":1,"scale":2},{"count":1}]},"graph":{"queues":[{"name":"a"},{"name":"b"}],"tasks":[{"name":"x","fse":0.5,"inputs":["a"],"outputs":["b"],"core":1}],"source":{"queue":"a"},"sink":{"queue":"b"}}}`))
	f.Add([]byte(`{"modulation":{"kind":"phase-shift"},"graph":{"placement":"balanced","queues":[{"name":"a"},{"name":"b"}],"tasks":[{"name":"x","fse":0.5,"inputs":["a"],"outputs":["b"]}],"source":{"queue":"a"},"sink":{"queue":"b"}}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var sp Spec
		if err := json.Unmarshal(data, &sp); err != nil {
			return // not a spec-shaped document; nothing to validate
		}

		n, err := sp.Normalize()
		if err != nil {
			// Reject ⇒ stable, structured error.
			if _, ok := err.(*SpecError); !ok {
				t.Fatalf("validation error is %T, not *SpecError: %v", err, err)
			}
			_, err2 := sp.Normalize()
			if err2 == nil || err.Error() != err2.Error() {
				t.Fatalf("validation verdict unstable:\nfirst:  %v\nsecond: %v", err, err2)
			}
			return
		}

		// Accept ⇒ canonicalization is stable...
		sc := mustFromSpec(t, sp)
		c1 := canonicalOf(t, sp)
		c2 := canonicalOf(t, n)
		if !bytes.Equal(c1, c2) {
			t.Fatalf("canonical bytes differ before/after normalization:\n%s\n%s", c1, c2)
		}

		// ...and the normalized form round-trips through JSON with the
		// same identity.
		enc, err := json.Marshal(n)
		if err != nil {
			t.Fatalf("marshal normalized: %v", err)
		}
		var back Spec
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("round-trip decode: %v", err)
		}
		c3 := canonicalOf(t, back)
		if !bytes.Equal(c1, c3) {
			t.Fatalf("round trip changed canonical bytes:\n%s\n%s", c1, c3)
		}

		// Compilation must not panic. Skip the pathological sizes the
		// validator legitimately accepts (they are slow, not wrong).
		if n.Platform.Cores > 64 || len(n.Graph.Tasks) > 256 {
			return
		}
		if _, err := sc.Instantiate(Options{}); err != nil {
			// Instantiate may reject what static validation cannot see
			// (e.g. a core index beyond the die) — but only with an
			// error, never a panic.
			return
		}
	})
}
