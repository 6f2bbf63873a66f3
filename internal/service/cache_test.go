package service

import (
	"bytes"
	"testing"
)

func TestLRUCacheEvictsLeastRecentlyUsed(t *testing.T) {
	c := newLRUCache(2)
	c.Add("a", []byte("A"))
	c.Add("b", []byte("B"))
	if _, ok := c.Get("a"); !ok { // refresh a; b is now LRU
		t.Fatal("a missing")
	}
	c.Add("c", []byte("C")) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("b survived past capacity")
	}
	if body, ok := c.Get("a"); !ok || !bytes.Equal(body, []byte("A")) {
		t.Errorf("a = %q, %v", body, ok)
	}
	if body, ok := c.Get("c"); !ok || !bytes.Equal(body, []byte("C")) {
		t.Errorf("c = %q, %v", body, ok)
	}
	st := c.stats()
	if st.evictions != 1 || st.entries != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.hits != 3 || st.misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 3/1", st.hits, st.misses)
	}
}

func TestLRUCacheRefreshExistingKey(t *testing.T) {
	c := newLRUCache(2)
	c.Add("a", []byte("A"))
	c.Add("b", []byte("B"))
	c.Add("a", []byte("A2")) // refresh, no growth
	c.Add("c", []byte("C"))  // evicts b, not a
	if _, ok := c.Get("b"); ok {
		t.Error("b survived; refresh did not update recency")
	}
	if body, ok := c.Get("a"); !ok || string(body) != "A2" {
		t.Errorf("a = %q, %v", body, ok)
	}
}
