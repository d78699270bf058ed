package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		// Two overlapping children cover [10, 50] together, not 20 + 30.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		// A child running past its parent counts only up to the parent's end.
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		// A grandchild is its parent's business, not the root's.
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 45},
		{ID: 6, Name: "lone", Start: 200, End: 260},
	}
	want := map[int]time.Duration{1: 50, 2: 20, 3: 10, 4: 30, 5: 20, 6: 60}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self time %v, want %v", id, got[id], w)
		}
	}
}

func TestRecorderWritesSpans(t *testing.T) {
	r := newRecorder()
	root := r.begin("op.hot", 0, 7)
	child := r.begin("scenario.Run", root, 7)
	r.end(child)
	r.end(root)
	at := r.epoch.Add(time.Millisecond)
	r.add("anond.backend", root, 7, at, at.Add(time.Millisecond))

	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := r.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	if len(got) != 3 || got[1].Parent != got[0].ID || got[2].Parent != got[0].ID || got[2].Op != 7 {
		t.Fatalf("spans = %+v", got)
	}
	if got[0].End < got[1].End || got[1].Start < got[0].Start {
		t.Errorf("child %+v not inside parent %+v", got[1], got[0])
	}
	if d := got[2].End - got[2].Start; d != int64(time.Millisecond) {
		t.Errorf("added span lasts %dns, want 1ms", d)
	}

	var nilRec *recorder
	if id := nilRec.begin("x", 0, 0); id != 0 || len(nilRec.snapshot()) != 0 {
		t.Error("a nil recorder recorded a span")
	}
}
