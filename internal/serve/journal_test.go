package serve

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/workload"
)

// goldenSession drives a runner through every journal entry kind — init,
// keyed and unkeyed submits, a replayed idempotent submit, supply set and
// clear, ticks, a fault, an explicit checkpoint and finalize — and
// abandons it without a closing checkpoint.
func goldenSession(t *testing.T, dir string) {
	t.Helper()
	sc := testScenario(509, false)
	cfg, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{CheckpointEvery: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Init(InitRequest{Scenario: sc}); err != nil {
		t.Fatal(err)
	}
	for i, j := range cfg.Trace {
		key := ""
		if i%2 == 0 {
			key = "key-" + string(rune('a'+i%26)) + "-" + j.Class.String()
		}
		if _, _, err := r.Submit(key, j); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := r.Submit("key-a-"+cfg.Trace[0].Class.String(), cfg.Trace[0]); err != nil {
		t.Fatal(err)
	}
	if err := r.Supply(SupplyRequest{Slot: 12, Watts: 1500.25}); err != nil {
		t.Fatal(err)
	}
	if err := r.Supply(SupplyRequest{Slot: 14, Watts: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Tick(TickRequest{To: 9}); err != nil {
		t.Fatal(err)
	}
	if err := r.Fault(FaultRequest{Event: fault.Event{Kind: fault.KindPVDerate, At: 20, Duration: 10, Magnitude: 0.4}}); err != nil {
		t.Fatal(err)
	}
	if err := r.Supply(SupplyRequest{Slot: 14, Clear: true}); err != nil {
		t.Fatal(err)
	}
	extra := workload.Job{ID: 900001, Class: workload.Batch, Submit: 30, Duration: 4, Deadline: 120, CPU: 1, RAMGB: 2}
	if _, _, err := r.Submit("late-<&>", extra); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Tick(TickRequest{To: 35}); err != nil {
		t.Fatal(err)
	}
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Tick(TickRequest{To: 40}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Finalize(); err != nil {
		t.Fatal(err)
	}
	kill(r)
}

func fileSHA(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestJournalGolden pins the on-disk bytes of the journal and the
// checkpoint after a scripted session. The journal digest was recorded
// with the encoding/json writer the layout writer replaced, so it also
// holds that writer to encoding/json's bytes. Both files must stay
// byte-identical, and recovering from them must reproduce the session.
func TestJournalGolden(t *testing.T) {
	const (
		wantJournal    = "6c2ad188d3151c35f6d8c4c93a20e50f7cd40af82017af111cbf649d0722554a"
		wantCheckpoint = "93084add5c53b3087bcff55d2043190682c3ff3470ea58816f9291a01737cb19"
	)
	dir := t.TempDir()
	goldenSession(t, dir)
	journal := filepath.Join(dir, "journal.jsonl")
	if got := fileSHA(t, journal); got != wantJournal {
		t.Errorf("journal sha256 %s, want %s", got, wantJournal)
	}
	if got := fileSHA(t, filepath.Join(dir, checkpointName)); got != wantCheckpoint {
		t.Errorf("checkpoint sha256 %s, want %s", got, wantCheckpoint)
	}

	blob, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	entries, good := scanJournal(blob)
	if want, wantGood := oracleScan(blob); !reflect.DeepEqual(entries, want) || good != wantGood {
		t.Fatalf("scan of the golden journal differs from the encoding/json scan")
	}
	for i, line := range bytes.Split(bytes.TrimSuffix(blob, []byte("\n")), []byte("\n")) {
		if _, ok := parseLine(line); !ok {
			t.Fatalf("line %d is not in the layout parser's format: %s", i+1, line)
		}
	}
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := r.Status()
	if !st.Finished || st.AppliedSeq != uint64(len(entries)) {
		t.Fatalf("recovered status %+v, want finished at seq %d", st, len(entries))
	}
	kill(r)
	if got := fileSHA(t, journal); got != wantJournal {
		t.Errorf("recovery changed the journal: sha256 %s", got)
	}
}

// oracleScan is the journal scanner as it was before the layout parser:
// bufio.Scanner lines, each decoded by json.Unmarshal. The fuzz test holds
// scanJournal to it on newline-terminated, carriage-return-free input.
func oracleScan(buf []byte) ([]Entry, int64) {
	var entries []Entry
	var good int64
	sc := bufio.NewScanner(bytes.NewReader(buf))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for sc.Scan() {
		line := sc.Bytes()
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil {
			break
		}
		if e.Seq != uint64(len(entries))+1 || e.CRC != entryCRC(e.Seq, e.Kind, e.Data) {
			break
		}
		entries = append(entries, e)
		good += int64(len(line)) + 1
	}
	return entries, good
}

// crcLine formats an entry in an arbitrary JSON spelling with the CRC it
// needs to be intact: format receives the seq, the CRC and the data.
func crcLine(seq uint64, kind, data, format string) string {
	return fmt.Sprintf(format, seq, entryCRC(seq, kind, []byte(data)), data) + "\n"
}

// scanSeeds are journal images on the edge between the layout parser and
// the generic decode: alternative spellings that only json.Unmarshal
// accepts, traps for a parser that reads the CRC from the wrong place, and
// malformed layouts.
func scanSeeds(t testing.TB) []string {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	j, _, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []struct {
		kind string
		data any
	}{
		{kindInit, InitRequest{Scenario: testScenario(1, false)}},
		{kindSubmit, submitRecord{Key: "k<&>\u2028", Job: workload.Job{ID: 7, Duration: 2, Deadline: 9, CPU: 0.5}}},
		{kindTick, TickRequest{To: 3}},
		{kindSupply, SupplyRequest{Slot: 5, Watts: 1e-7}},
		{kindFinalize, nil},
		{"custom", map[string]any{"crc": 1, "data": []int{1, 2}}},
		{"odd\"kind<", json.RawMessage(`"x"`)},
		{kindTick, json.RawMessage(`null`)},
	} {
		if _, err := j.Append(a.kind, a.data); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	appended, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []string{
		"",
		"\n",
		string(appended),
		crcLine(1, "tick", `{"to":1}`, `{"seq":%d,"kind":"tick","data":%[3]s,"crc":%[2]d}`),
		crcLine(1, "tick", `{"to":1}`, `{ "seq" : %d , "kind":"tick","data": %[3]s ,"crc":%[2]d }`),
		crcLine(1, "tick", `{"to":1}`, `{"crc":%[2]d,"seq":%[1]d,"kind":"tick","data":%[3]s}`),
		crcLine(1, "tick", `{"to":1}`, `{"SEQ":%d,"Kind":"tick","data":%[3]s,"crc":%[2]d}`),
		crcLine(1, "tick", `{"to":1}`, `{"seq":%d,"kind":"\u0074ick","data":%[3]s,"crc":%[2]d}`),
		crcLine(1, "tick", `{"to":1}`, `{"seq":%d,"kind":"tick","data":%[3]s,"crc":%[2]d,"extra":true}`),
		crcLine(1, "tick", `{"to":1}`, `{"seq":%d,"kind":"tick","data":%[3]s,"crc":99,"crc":%[2]d}`),
		crcLine(1, "tick", `{"to":1}`, `{"seq":%d,"kind":"tick","data":%[3]s,"crc":%[2]d,"crc":99}`),
		crcLine(1, "tick", `{"to":1}`, `{"seq":%d,"kind":"tick","data":%[3]s,"crc":%[2]d.0}`),
		crcLine(1, "tick", `{"to":1}`, `{"seq":0%d,"kind":"tick","data":%[3]s,"crc":%[2]d}`),
		crcLine(1, "tick", `{"crc":5}`, `{"seq":%d,"kind":"tick","data":%[3]s,"crc":%[2]d}`),
		crcLine(1, "tick", `{"a":1},"crc":5`, `{"seq":%d,"kind":"tick","data":%[3]s,"crc":%[2]d}`),
		crcLine(1, "tick", ``, `{"seq":%d,"kind":"tick","crc":%[2]d}%[3]s`),
		crcLine(1, "tick", `7`, `{"seq":%d,"kind":"tick","data":%[3]s,"crc":%[2]d}`),
		crcLine(1, "", `[]`, `{"seq":%d,"kind":"","data":%[3]s,"crc":%[2]d}`),
		crcLine(1, "tick", `{"to":1}`, `{"seq":%d,"kind":"tick","data":%[3]s,"crc":%[2]d}`) + "not json\n",
		crcLine(1, "tick", `{"to":1}`, `{"seq":%d,"kind":"tick","data":%[3]s,"crc":%[2]d}`) +
			crcLine(3, "tick", `{"to":2}`, `{"seq":%d,"kind":"tick","data":%[3]s,"crc":%[2]d}`),
		`{"seq":1,"kind":"tick","data":{"to":1},"crc":4294967296}` + "\n",
		`{"seq":18446744073709551616,"kind":"tick","crc":1}` + "\n",
	}
	return seeds
}

// FuzzJournalScan holds the layout parser to the generic decode it
// replaced: on any newline-terminated, carriage-return-free journal image
// the scan, cut into one to four chunks, must yield the oracle's entries
// and truncation offset.
func FuzzJournalScan(f *testing.F) {
	for _, s := range scanSeeds(f) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		buf = bytes.ReplaceAll(buf, []byte("\r"), nil)
		if len(buf) > 0 && buf[len(buf)-1] != '\n' {
			buf = append(buf, '\n')
		}
		want, wantGood := oracleScan(buf)
		for chunks := 1; chunks <= 4; chunks++ {
			got, good := scanJournalChunks(buf, chunks)
			if good != wantGood {
				t.Fatalf("%d chunks: truncation offset %d, oracle %d", chunks, good, wantGood)
			}
			if len(got) != len(want) {
				t.Fatalf("%d chunks: %d entries, oracle %d", chunks, len(got), len(want))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("%d chunks: entry %d: %+v, oracle %+v", chunks, i, got[i], want[i])
				}
			}
		}
	})
}

// TestChunkedScanMatchesOracle holds the chunked scan, at one to four
// chunks, to the encoding/json scan on a 300-entry history with one defect
// injected at each line in turn, so every defect also lands on the first
// and last line of some chunk (every seventh line in short mode). A defect
// that breaks the line must stop both scans exactly there; a respelling
// only json.Unmarshal reads must stop neither.
func TestChunkedScanMatchesOracle(t *testing.T) {
	const n = 300
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	historyJournal(t, path, n)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(blob, []byte("\n"))
	lines = lines[:len(lines)-1] // the empty remainder after the last newline
	if len(lines) != n {
		t.Fatalf("history has %d lines, want %d", len(lines), n)
	}
	withSeq := func(line []byte, seq uint64, data []byte) []byte {
		e, ok := parseLine(line[:len(line)-1])
		if !ok {
			t.Fatalf("history line is not in the layout: %s", line)
		}
		return appendLine(nil, seq, e.Kind, data, entryCRC(seq, e.Kind, data))
	}
	defects := []struct {
		name  string
		stops bool
		image func(k int) []byte // the history with line k (seq k+1) damaged
	}{
		{"torn last line", true, func(k int) []byte {
			img := bytes.Join(lines[:k], nil)
			return append(img, lines[k][:len(lines[k])/2]...)
		}},
		{"flipped CRC digit", true, func(k int) []byte {
			line := bytes.Clone(lines[k])
			d := len(line) - 3 // the CRC's last digit, before "}\n"
			line[d] = '0' + (line[d]-'0'+1)%10
			return splice(lines, k, line)
		}},
		{"seq gap", true, func(k int) []byte {
			e, _ := parseLine(lines[k][:len(lines[k])-1])
			return splice(lines, k, withSeq(lines[k], uint64(k)+2, e.Data))
		}},
		{"respelled", false, func(k int) []byte {
			line := bytes.Replace(lines[k], []byte(lineSeq), []byte(lineSeq+" "), 1)
			return splice(lines, k, line)
		}},
		{"empty line", true, func(k int) []byte {
			return splice(lines, k, append([]byte("\n"), lines[k]...))
		}},
		{"data not JSON, CRC intact", true, func(k int) []byte {
			return splice(lines, k, withSeq(lines[k], uint64(k)+1, []byte(`{"to":1,}`)))
		}},
	}
	stride := 1
	if testing.Short() {
		stride = 7
	}
	for _, d := range defects {
		for k := 0; k < n; k += stride {
			img := d.image(k)
			want, wantGood := oracleScan(img)
			wantN := n
			if d.stops {
				wantN = k
			}
			if len(want) != wantN {
				t.Fatalf("%s at line %d: oracle kept %d entries, want %d", d.name, k+1, len(want), wantN)
			}
			for chunks := 1; chunks <= 4; chunks++ {
				got, good := scanJournalChunks(img, chunks)
				if good != wantGood || len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
					t.Fatalf("%s at line %d, %d chunks: %d entries to offset %d, oracle %d to %d",
						d.name, k+1, chunks, len(got), good, len(want), wantGood)
				}
			}
		}
	}
}

// splice returns the lines joined with line k replaced by repl.
func splice(lines [][]byte, k int, repl []byte) []byte {
	img := bytes.Join(lines[:k], nil)
	img = append(img, repl...)
	return append(img, bytes.Join(lines[k+1:], nil)...)
}

// TestAppendLineMatchesMarshal pins the writer half of the layout: for a
// plain kind, appendLine emits exactly what encoding/json emits for the
// entry.
func TestAppendLineMatchesMarshal(t *testing.T) {
	for _, kind := range []string{kindInit, kindSubmit, kindTick, kindFault, kindSupply, kindFinalize, "", "a/b c"} {
		for _, v := range []any{nil, TickRequest{To: 4}, "<&>\u2028", json.RawMessage("null"), []float64{-0.5, 1e21}} {
			var data json.RawMessage
			if v != nil {
				b, err := json.Marshal(v)
				if err != nil {
					t.Fatal(err)
				}
				data = b
			}
			crc := entryCRC(9, kind, data)
			want, err := json.Marshal(Entry{Seq: 9, Kind: kind, Data: data, CRC: crc})
			if err != nil {
				t.Fatal(err)
			}
			if got := appendLine(nil, 9, kind, data, crc); string(got) != string(want)+"\n" {
				t.Errorf("kind %q data %s:\n got %s\nwant %s", kind, data, got, want)
			}
		}
	}
}

// TestJournalScanInterning checks that parsed entries carry the package's
// kind constants and alias the scanned buffer.
func TestJournalScanInterning(t *testing.T) {
	line := appendLine(nil, 1, kindSubmit, []byte(`{"job":{}}`), entryCRC(1, kindSubmit, []byte(`{"job":{}}`)))
	entries, _ := scanJournal(line)
	if len(entries) != 1 {
		t.Fatalf("scanned %d entries, want 1", len(entries))
	}
	e := entries[0]
	if e.Kind != kindSubmit || &e.Data[0] != &line[bytes.Index(line, []byte(`{"job"`))] {
		t.Fatalf("entry %+v does not alias the line or carry the kind constant", e)
	}
}

// historyJournal writes a journal of n entries, mostly submits and ticks
// as a live session journals them.
func historyJournal(t testing.TB, path string, n int) {
	t.Helper()
	j, _, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		var err error
		switch {
		case i%10 == 9:
			_, err = j.Append(kindTick, TickRequest{To: i})
		case i%25 == 0:
			_, err = j.Append(kindSupply, SupplyRequest{Slot: i, Watts: 1234.5})
		default:
			_, err = j.Append(kindSubmit, submitRecord{Key: fmt.Sprintf("k%d", i), Job: workload.Job{
				ID: i, Class: workload.Batch, Submit: i / 10, Duration: 3, Deadline: i/10 + 40, CPU: 0.75, RAMGB: 1.5,
			}})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenJournalAllocs is the scan's allocation ceiling: fewer
// allocations than entries returned, where decoding every line by
// reflection took about a dozen per entry.
func TestOpenJournalAllocs(t *testing.T) {
	data := []byte(`{"job":{}}`)
	if got := testing.AllocsPerRun(100, func() { _ = entryCRC(7, kindSubmit, data) }); got != 0 {
		t.Errorf("entryCRC allocates %v times", got)
	}
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	const n = 500
	historyJournal(t, path, n)
	allocs := testing.AllocsPerRun(5, func() {
		j, entries, err := OpenJournal(path, false)
		if err != nil || len(entries) != n {
			t.Fatalf("reopened %d entries (err %v), want %d", len(entries), err, n)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= n {
		t.Fatalf("OpenJournal made %v allocations for %d entries", allocs, n)
	}
}

// BenchmarkOpenJournal scans a ~4k-entry journal. Its result is the
// entries recovered times 1e7 plus the intact bytes the file is truncated
// to.
func BenchmarkOpenJournal(b *testing.B) {
	path := filepath.Join(b.TempDir(), "journal.jsonl")
	historyJournal(b, path, 4200)
	var recovered int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, entries, err := OpenJournal(path, false)
		if err != nil {
			b.Fatal(err)
		}
		recovered = len(entries)
		if err := j.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(recovered)*1e7+float64(st.Size()), "result")
}

// BenchmarkRecover recovers a session of ~4k journal entries — a week's
// submissions plus the ticks through two days, checkpointed every 1000
// entries — from its checkpoint and journal tail.
func BenchmarkRecover(b *testing.B) {
	dir := b.TempDir()
	sc := testScenario(510, false)
	sc.WorkloadScale = 1
	cfg, err := sc.Compile()
	if err != nil {
		b.Fatal(err)
	}
	r, err := Open(dir, Options{CheckpointEvery: 1000})
	if err != nil {
		b.Fatal(err)
	}
	if err := r.Init(InitRequest{Scenario: sc}); err != nil {
		b.Fatal(err)
	}
	for i, j := range cfg.Trace {
		if _, _, err := r.Submit(fmt.Sprintf("k%d", i), j); err != nil {
			b.Fatal(err)
		}
	}
	for to := 11; to < 48; to += 12 {
		if _, err := r.Tick(TickRequest{To: to}); err != nil {
			b.Fatal(err)
		}
	}
	want := r.Status()
	kill(r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if st := r.Status(); st.AppliedSeq != want.AppliedSeq || st.NextSlot != want.NextSlot {
			b.Fatalf("recovered %+v, want %+v", st, want)
		}
		kill(r)
	}
}

// TestDecodeCheckpointEnvelope holds the in-place envelope split to the
// generic decode: the file writeCheckpoint emits, and respellings of it
// that only the generic decode may judge, load or fail alike.
func TestDecodeCheckpointEnvelope(t *testing.T) {
	dir := t.TempDir()
	cp := Checkpoint{Seq: 4, AuditOffset: 99, Overrides: map[int]float64{3: 1.5}, Idem: map[string]json.RawMessage{"k": json.RawMessage(`{"job_id":1,"seq":2}`)}}
	if err := writeCheckpoint(dir, cp); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(dir, checkpointName))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := splitEnvelope(blob); !ok {
		t.Fatal("the written envelope is not in the layout splitEnvelope reads")
	}
	generic := func(blob []byte) (Checkpoint, bool) {
		var env checkpointFile
		if json.Unmarshal(blob, &env) != nil {
			return Checkpoint{}, false
		}
		sum := sha256.Sum256(env.Payload)
		var cp Checkpoint
		if hex.EncodeToString(sum[:]) != env.SHA256 || json.Unmarshal(env.Payload, &cp) != nil {
			return Checkpoint{}, false
		}
		return cp, true
	}
	s := string(blob)
	for _, variant := range []string{
		s,
		strings.TrimSuffix(s, "\n"),
		strings.Replace(s, `"payload":`, `"payload": `, 1),
		strings.Replace(s, `{"sha256"`, `{ "sha256"`, 1),
		strings.ToUpper(s[:75]) + s[75:],
		strings.Replace(s, `"seq":4`, `"seq":5`, 1),
		strings.Replace(s, "}\n", ",\"x\":1}\n", 1),
		s[:len(s)/2],
	} {
		got, ok := decodeCheckpoint([]byte(variant))
		want, wantOK := generic([]byte(variant))
		if ok != wantOK || !reflect.DeepEqual(got, want) {
			t.Errorf("envelope %.40q: decoded %+v ok=%v, generic %+v ok=%v", variant, got, ok, want, wantOK)
		}
	}
	if got, _ := decodeCheckpoint(blob); !reflect.DeepEqual(got, cp) {
		t.Errorf("decoded %+v, wrote %+v", got, cp)
	}
}
