package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"testing"
)

// frame encodes one journal line the way writeLocked does, for seeding.
func frame(payload string) []byte {
	return []byte(fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE([]byte(payload)), payload))
}

// FuzzParseJournal: journal segments are attacker-grade input — torn
// writes, bit rot, hand edits, stray files. The parser must never panic;
// in tolerant mode it returns a good prefix whose byte length re-parses
// to the same records, and in strict mode any accepted blob is fully
// framed.
func FuzzParseJournal(f *testing.F) {
	header := frame(`{"seq":1,"type":"header","schema":"ncap-journal-v1","segment":1}`)
	submit := frame(`{"seq":2,"type":"submit","sweep":"s000001","request":{"family":"e11"}}`)
	complete := frame(`{"seq":3,"type":"complete","sweep":"s000001","key":"k","result":{}}`)
	good := append(append(append([]byte{}, header...), submit...), complete...)

	f.Add([]byte(""), uint64(1), true)
	f.Add(good, uint64(1), true)
	f.Add(good, uint64(1), false)
	f.Add(good, uint64(7), false)                         // wrong first seq
	f.Add(good[:len(good)-9], uint64(1), true)            // torn tail
	f.Add(good[:len(good)-9], uint64(1), false)           // torn tail, strict
	f.Add(append([]byte("xx"), good...), uint64(1), true) // leading garbage
	f.Add(frame(`{"seq":1,"type":"header","schema":"ncap-journal-v9","segment":1}`), uint64(1), false)
	f.Add(frame(`{"seq":1}`), uint64(1), false)         // missing type
	f.Add(frame(`{"type":"submit"}`), uint64(1), false) // missing seq
	f.Add([]byte("00000000 {}\n"), uint64(1), true)     // bad checksum
	f.Add([]byte("zzzzzzzz {}\n"), uint64(1), true)     // unparseable checksum
	f.Add([]byte("short\n"), uint64(1), true)
	f.Add(frame(`[1,2,3]`), uint64(1), true)                                // valid JSON, wrong shape
	f.Add(bytes.Repeat(frame(`{"seq":1,"type":"x"}`), 3), uint64(1), false) // seq never advances
	f.Add([]byte("\x00\x01\x02\n\n\n"), uint64(1), true)

	f.Fuzz(func(t *testing.T, blob []byte, firstSeq uint64, tolerate bool) {
		recs, good, err := ParseJournal(blob, firstSeq, tolerate)
		if good < 0 || good > len(blob) {
			t.Fatalf("good prefix %d out of range [0,%d]", good, len(blob))
		}
		if tolerate && err != nil {
			t.Fatalf("tolerant parse returned error: %v", err)
		}
		if err != nil {
			return
		}
		// Sequences must be exactly consecutive from firstSeq.
		for i, r := range recs {
			if r.Seq != firstSeq+uint64(i) {
				t.Fatalf("record %d has seq %d, want %d", i, r.Seq, firstSeq+uint64(i))
			}
		}
		// The good prefix must re-parse strictly to the same records —
		// this is what OpenJournal relies on after truncating a torn tail.
		again, goodAgain, err2 := ParseJournal(blob[:good], firstSeq, false)
		if err2 != nil {
			t.Fatalf("good prefix does not re-parse strictly: %v", err2)
		}
		if goodAgain != good || len(again) != len(recs) {
			t.Fatalf("re-parse drifted: %d/%d bytes, %d/%d records", goodAgain, good, len(again), len(recs))
		}
	})
}

// FuzzParseSubmit: the HTTP submit body decoder must never panic, and
// anything it accepts must survive the canonical journal round trip —
// replay re-parses with the same strictness, so accept-once must imply
// accept-always. An accepted overload spec is one every job of the sweep
// accepts.
func FuzzParseSubmit(f *testing.F) {
	f.Add([]byte(`{"family":"e11"}`))
	f.Add([]byte(`{"family":"e11","workload":"apache","full":true,"seed":7}`))
	f.Add([]byte(`{"family":"all","windows":{"warmup_ns":1,"measure_ns":2,"drain_ns":3}}`))
	f.Add([]byte(`{"family":"e13","overload":{"admit":"codel","queueCap":64}}`))
	f.Add([]byte(`{"family":"e11","overload":{"admit":"martian"}}`))
	f.Add([]byte(`{"family":"e11","overload":{"dedupCap":-5}}`))
	f.Add([]byte(`{"family":"e11","topology":{"racks":[]}}`))
	f.Add([]byte(`{"family":"nope"}`))
	f.Add([]byte(`{"family":"e11","bogus":1}`))
	f.Add([]byte(`{"family":"e11"} extra`))
	f.Add([]byte(`{"family":"e11","seed":-1}`))
	f.Add([]byte(`{"family":"e11","windows":{"warmup_ns":-5,"measure_ns":1,"drain_ns":1}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Add([]byte(`{"family`))
	f.Add([]byte("\x00\xff\xfe"))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseSubmit(bytes.NewReader(data))
		if err != nil {
			return
		}
		if req.Family == "" || req.Seed == 0 {
			t.Fatalf("accepted request missing defaults: %+v", req)
		}
		if err := req.Overload.Validate(); err != nil {
			t.Fatalf("accepted an invalid overload spec: %v", err)
		}
		raw, err := req.canonical()
		if err != nil {
			t.Fatalf("accepted request does not serialize: %v", err)
		}
		back, err := reparse(raw)
		if err != nil {
			t.Fatalf("canonical form rejected on replay: %v (raw %s)", err, raw)
		}
		b1, _ := json.Marshal(req)
		b2, _ := json.Marshal(back)
		if !bytes.Equal(b1, b2) {
			t.Fatalf("journal round trip changed the request:\n  %s\n  %s", b1, b2)
		}
	})
}
