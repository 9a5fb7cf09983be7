package search

import (
	"testing"

	"gcs/internal/engine"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// FuzzScript checks engine.Script against a plain map: NewScript accepts
// exactly the duplicate-free entry lists, in any order, and keeps every
// entry in (From, To, Seq) order; Lookup answers as the map does, present
// and absent keys alike; With edits one present key of a copy, leaves the
// original alone, and panics on an absent key; Equal holds exactly when the
// maps agree; and the identity hash sum is the same however the entries
// arrived and follows a With incrementally. Each 4-byte group of data is one
// entry (from, to, seq, delay), the final group the With edit.
func FuzzScript(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 1, 0, 0, 2, 0, 1, 1, 3, 0, 1, 0, 4})
	f.Add([]byte{2, 1, 7, 0, 0, 2, 3, 1, 2, 1, 7, 5})
	f.Add([]byte{1, 0, 200, 9, 1, 0, 3, 9})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 9, 2, 1, 0, 0, 3}) // a duplicate key
	f.Fuzz(func(t *testing.T, data []byte) {
		entry := func(b []byte) engine.ScriptEntry {
			// Small ranges so keys collide and the edit often hits one.
			return engine.ScriptEntry{
				Key:   trace.MsgKey{From: int(b[0] % 3), To: int(b[1] % 3), Seq: uint64(b[2] % 9)},
				Delay: rat.MustFrac(int64(b[3]%7), int64(b[3]%3+1)),
			}
		}
		var entries []engine.ScriptEntry
		for ; len(data) >= 8; data = data[4:] {
			entries = append(entries, entry(data))
		}
		if len(data) < 4 {
			return
		}
		edit := entry(data)

		ref := make(map[trace.MsgKey]rat.Rat)
		dup := false
		for _, e := range entries {
			_, dup0 := ref[e.Key]
			dup = dup || dup0
			ref[e.Key] = e.Delay
		}
		s, err := engine.NewScript(entries)
		if dup != (err != nil) {
			t.Fatalf("NewScript(%v): error %v, duplicate keys %v", entries, err, dup)
		}
		if dup {
			return
		}
		reversed := make([]engine.ScriptEntry, len(entries))
		for i, e := range entries {
			reversed[len(entries)-1-i] = e
		}
		r, err := engine.NewScript(reversed)
		if err != nil || !s.Equal(r) || !r.Equal(s) {
			t.Fatalf("entry order changed the script: %v vs %v (%v)", s, r, err)
		}

		check := func(name string, s engine.Script, ref map[trace.MsgKey]rat.Rat) {
			t.Helper()
			if len(s) != len(ref) {
				t.Fatalf("%s: %d entries, reference %d", name, len(s), len(ref))
			}
			var sum uint64
			for i, e := range s {
				k := e.Key
				if i > 0 {
					p := s[i-1].Key
					if !(p.From < k.From || p.From == k.From && (p.To < k.To || p.To == k.To && p.Seq < k.Seq)) {
						t.Fatalf("%s: entries %d and %d out of order: %v", name, i-1, i, s)
					}
				}
				sum += entryHash(k, ref[k])
			}
			for from := 0; from < 3; from++ {
				for to := 0; to < 3; to++ {
					for seq := uint64(0); seq < 10; seq++ {
						k := trace.MsgKey{From: from, To: to, Seq: seq}
						got, ok := s.Lookup(k)
						want, wok := ref[k]
						if ok != wok || ok && !got.Equal(want) {
							t.Fatalf("%s: Lookup(%v) = %s, %v; reference %s, %v", name, k, got, ok, want, wok)
						}
					}
				}
			}
			if h := scriptHash(s); h != sum {
				t.Fatalf("%s: hash sum %#x, reference %#x", name, h, sum)
			}
		}
		check("NewScript", s, ref)

		old, had := ref[edit.Key]
		if !had {
			defer func() {
				if recover() == nil {
					t.Fatalf("With(%v) on a script without that key did not panic", edit.Key)
				}
			}()
			s.With(edit.Key, edit.Delay)
			return
		}
		before := append(engine.Script(nil), s...)
		w := s.With(edit.Key, edit.Delay)
		if !s.Equal(before) {
			t.Fatalf("With changed its receiver: %v, was %v", s, before)
		}
		edited := make(map[trace.MsgKey]rat.Rat, len(ref))
		for k, v := range ref {
			edited[k] = v
		}
		edited[edit.Key] = edit.Delay
		check("With", w, edited)
		if same := old.Equal(edit.Delay); w.Equal(s) != same {
			t.Fatalf("Equal(With(%v, %s), s) = %v, want %v", edit.Key, edit.Delay, !same, same)
		}
		want := scriptHash(s) - entryHash(edit.Key, old) + entryHash(edit.Key, edit.Delay)
		if h := scriptHash(w); h != want {
			t.Fatalf("With hash %#x, incremental %#x", h, want)
		}
	})
}
