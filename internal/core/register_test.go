package core

import (
	"testing"

	"thermbal/internal/policy"
)

func TestThermalBalanceRegistered(t *testing.T) {
	for _, name := range []string{"thermal-balance", "tb", "migra"} {
		p, err := policy.New(name, policy.Args{Delta: 3, TopK: 2})
		if err != nil {
			t.Fatalf("policy.New(%q): %v", name, err)
		}
		b, ok := p.(*Balancer)
		if !ok {
			t.Fatalf("policy.New(%q) returned %T, want *Balancer", name, p)
		}
		if b.p.Delta != 3 || b.p.TopK != 2 {
			t.Errorf("params not threaded: %+v", b.p)
		}
	}
	if _, err := policy.New("thermal-balance", policy.Args{}); err == nil {
		t.Fatal("thermal-balance with zero delta succeeded")
	}
}
