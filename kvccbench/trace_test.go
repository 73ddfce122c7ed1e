package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100 * ms},
		// Two overlapping children cover [10,50); a third [60,70).
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 30 * ms, End: 50 * ms},
		{ID: 4, Parent: 1, Name: "c", Start: 60 * ms, End: 70 * ms},
		// A grandchild counts against its parent only.
		{ID: 5, Parent: 2, Name: "d", Start: 15 * ms, End: 25 * ms},
		// A child running past its parent is clipped to it.
		{ID: 6, Name: "short", Start: 200 * ms, End: 210 * ms},
		{ID: 7, Parent: 6, Name: "long", Start: 205 * ms, End: 300 * ms},
	}
	got, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{50 * ms, 20 * ms, 20 * ms, 10 * ms, 10 * ms, 5 * ms, 95 * ms}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %v, want %v", i+1, spans[i].Name, got[i], want[i])
		}
	}
	if _, err := selfTimes([]span{{ID: 1, Start: 2, End: 1}}); err == nil {
		t.Error("span ending before it starts accepted")
	}
}

func TestPerRequestSumsUnderRoot(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "core.component", Start: 0, End: 30 * ms},
		{ID: 3, Parent: 2, Name: "sparse.Compute", Start: 0, End: 10 * ms},
		{ID: 4, Parent: 1, Name: "core.component", Start: 40 * ms, End: 60 * ms},
		{ID: 5, Name: "request", Start: 100 * ms, End: 200 * ms},
		{ID: 6, Parent: 5, Name: "core.component", Start: 100 * ms, End: 110 * ms},
	}
	total, err := perRequest(spans, "core.component", false)
	if err != nil {
		t.Fatal(err)
	}
	self, err := perRequest(spans, "core.component", true)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := perRequest(spans, "sparse.Compute", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(total) != 2 || total[0] != 50 || total[1] != 10 {
		t.Errorf("component totals %v, want [50 10]", total)
	}
	if len(self) != 2 || self[0] != 40 || self[1] != 10 {
		t.Errorf("component self times %v, want [40 10]", self)
	}
	if len(cert) != 1 || cert[0] != 10 {
		t.Errorf("certificate time %v attributed to its request, want [10]", cert)
	}
}
