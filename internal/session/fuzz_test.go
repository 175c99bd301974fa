package session_test

import (
	"encoding/json"
	"testing"

	"disjunct/internal/db"
	"disjunct/internal/session"
)

// FuzzHandoffImport feeds arbitrary bytes, decoded as a drain-handoff
// envelope, to Manager.Import — the decoder a peer reaches over the
// cluster's handoff and join endpoints. Import must never panic, and
// it may accept only artifacts whose text still parses and recompiles
// to the shipped fingerprint and fragment: a forged or stale record is
// re-derived on demand, never trusted.
func FuzzHandoffImport(f *testing.F) {
	src := session.NewManager(session.Config{})
	for _, text := range []string{"a | b.", "a. b :- a.", "p :- not q. q :- not p."} {
		d, err := db.Parse(text)
		if err != nil {
			f.Fatal(err)
		}
		src.Intern(text, d)
	}
	h := src.Export()
	h.Verdicts = append(h.Verdicts, session.HandoffVerdict{Raw: h.Artifacts[0].Raw, Sem: "GCWA", MemoKey: "literal|-a", Holds: true})
	healthy, err := json.Marshal(h)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(healthy)
	stale := h
	stale.Artifacts = append([]session.HandoffArtifact(nil), h.Artifacts...)
	stale.Artifacts[0].Frag++
	stale.Artifacts[1].Raw = "forged"
	if b, err := json.Marshal(stale); err == nil {
		f.Add(b)
	}
	f.Add([]byte(`{"artifacts":[{"text":"not ( parseable","raw":"x","frag":0}]}`))
	f.Add([]byte(`{"artifacts":null,"verdicts":[{"raw":"","sem":"","memo_key":"","holds":false}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var h session.Handoff
		if json.Unmarshal(data, &h) != nil {
			return
		}
		accepted := map[string]bool{}
		wantArts := 0
		for _, a := range h.Artifacts {
			d, err := db.Parse(a.Text)
			if err != nil {
				continue
			}
			comp := session.Compile(a.Text, d)
			if comp.Raw == a.Raw && uint8(comp.Frag) == a.Frag {
				accepted[a.Text] = true
				wantArts++
			}
		}

		m := session.NewManager(session.Config{})
		arts, _ := m.Import(h)
		if arts != wantArts {
			t.Fatalf("imported %d artifacts, want %d (only re-derivation matches)", arts, wantArts)
		}
		for _, a := range h.Artifacts {
			comp, ok := m.Lookup(a.Text)
			if ok != accepted[a.Text] {
				t.Fatalf("artifact %q cached=%v, want %v", a.Text, ok, accepted[a.Text])
			}
			if !ok {
				continue
			}
			d, _ := db.Parse(a.Text)
			if want := session.Compile(a.Text, d); comp.Raw != want.Raw || comp.Frag != want.Frag {
				t.Fatalf("artifact %q cached with a fingerprint or fragment its text does not compile to", a.Text)
			}
		}
	})
}
