package store

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// legacyRec frames one record exactly as every writer of this format
// has: type byte, uvarint payload length, CRC-32 of the payload, then
// the payload.
func legacyRec(typ byte, fields ...[]byte) []byte {
	var payload []byte
	for _, f := range fields {
		payload = append(payload, f...)
	}
	out := []byte{typ}
	out = binary.AppendUvarint(out, uint64(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// pstr encodes one length-prefixed string field.
func pstr(s string) []byte {
	return append(binary.AppendUvarint(nil, uint64(len(s))), s...)
}

// legacyIntern encodes a retired type-3 interner record: canonical key,
// SAT flag, raw fingerprint, and an optional witness (presence flag,
// then a length-prefixed byte string).
func legacyIntern(key string, sat bool, raw string, model []byte) []byte {
	flag := []byte{0}
	if sat {
		flag[0] = 1
	}
	witness := []byte{0}
	if model != nil {
		witness = append([]byte{1}, pstr(string(model))...)
	}
	return legacyRec(recIntern, pstr(key), flag, pstr(raw), witness)
}

// legacyLog is a log as written before artifact keys and interner
// records were retired: an artifact carrying a non-empty canonical
// key, and interner records placed ahead of the verdict and estimate
// records they must not cut off.
func legacyLog() []byte {
	log := []byte(magic)
	log = append(log, legacyRec(recArtifact, pstr("a | b.\n"), pstr("K1-canonical"), []byte{2})...)
	log = append(log, legacyIntern("CK1", true, "RAW1", []byte{3, 1, 0, 2})...)
	log = append(log, legacyIntern("CK2", false, "RAW2", nil)...)
	log = append(log, legacyRec(recVerdict, pstr("R1"), pstr("GCWA"), pstr("literal|a"), []byte{1})...)
	var est []byte
	for _, v := range []uint64{3, 12, 40, 900} {
		est = binary.AppendUvarint(est, v)
	}
	log = append(log, legacyRec(recEstimate, pstr("R1"), pstr("GCWA"), est)...)
	return log
}

// scanTypes lists the record types of a log file in order.
func scanTypes(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var types []byte
	for off := len(magic); off < len(data); {
		n, typ, _ := parseRecord(data[off:])
		if n <= 0 {
			t.Fatalf("unreadable record at offset %d", off)
		}
		types = append(types, typ)
		off += n
	}
	return types
}

// TestLegacyLogCompat opens a hand-built log in the format
// written before artifact keys and interner records were retired:
// every artifact, verdict and estimate loads, the interner records are
// dropped without being taken for a torn tail, and compaction writes
// none of them back.
func TestLegacyLogCompat(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logName), legacyLog(), 0o644); err != nil {
		t.Fatal(err)
	}
	s, rec, err := Open(Config{Dir: dir, MaxBytes: 1}) // every flush compacts
	if err != nil {
		t.Fatal(err)
	}
	if rec.TornTail || rec.Dropped != 0 {
		t.Fatalf("legacy log read as torn: %+v", rec)
	}
	if rec.Artifacts != 1 || rec.Verdicts != 1 || rec.Estimates != 1 {
		t.Fatalf("recovery counts = %+v, want 1 artifact, 1 verdict, 1 estimate", rec)
	}
	check := func(s *Store) {
		t.Helper()
		if a, ok := s.Artifact("a | b.\n"); !ok || a.Frag != 2 {
			t.Fatalf("artifact = %+v ok=%v", a, ok)
		}
		if m := s.Verdicts("R1", "GCWA"); len(m) != 1 || !m["literal|a"] {
			t.Fatalf("verdicts = %v", m)
		}
		want := Estimate{Raw: "R1", Sem: "GCWA", Count: 3, SumNP: 12, SumConfl: 40, SumMicros: 900}
		if e, ok := s.EstimateFor("R1", "GCWA"); !ok || e != want {
			t.Fatalf("estimate = %+v ok=%v", e, ok)
		}
	}
	check(s)

	s.Flush()
	if st := s.Stats(); st.Compactions == 0 {
		t.Fatalf("no compaction under a 1-byte budget: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, typ := range scanTypes(t, filepath.Join(dir, logName)) {
		if typ == recIntern {
			t.Fatal("compaction wrote an interner record")
		}
	}
	s2, rec2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec2.TornTail {
		t.Fatalf("compacted log read as torn: %+v", rec2)
	}
	check(s2)
}

// TestArtifactKeySlotWrittenEmpty pins the layout older readers rely
// on: an artifact record still carries three fields, the middle one
// empty.
func TestArtifactKeySlotWrittenEmpty(t *testing.T) {
	want := legacyRec(recArtifact, pstr("a."), pstr(""), []byte{3})
	payload := encodeArtifact(Artifact{Text: "a.", Frag: 3})
	if got := legacyRec(recArtifact, payload); string(got) != string(want) {
		t.Fatalf("artifact record = %x, want %x", got, want)
	}
}
