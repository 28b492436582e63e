// Package serve is the crash-recoverable live scheduler service behind
// gmserve: a core.Live scheduler wrapped in a write-ahead journal, periodic
// state checkpoints and an HTTP API. Every state-mutating request is
// appended (and optionally fsynced) to the journal before it is applied, a
// checkpoint periodically snapshots the full scheduler state, and recovery
// restores the latest checkpoint and replays the journal tail — so a
// SIGKILL at any point between requests is invisible: the recovered
// daemon's audit trace and final Result are byte-identical to an
// uninterrupted run's, which the live chaos harness (gmchaos -serve) and
// the crash-recovery property suite both pin by sha256.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"sync"
)

// Entry is one journaled state mutation. Seq numbers are contiguous from 1;
// CRC covers (Seq, Kind, Data) and guards against torn tail writes: on
// recovery the journal is scanned until the first entry that fails to
// parse, fails its CRC or breaks the sequence, and the file is truncated
// there — everything before is exactly the mutations that were applied (or
// were about to be).
type Entry struct {
	Seq  uint64          `json:"seq"`
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data,omitempty"`
	CRC  uint32          `json:"crc"`
}

// entryCRC computes the integrity checksum of an entry's identifying
// fields: CRC32-IEEE over the little-endian seq, the kind and the data.
// The seq and kind go through the table a byte at a time, which keeps them
// off the heap; crc32.Update's accelerated path lets its input escape.
func entryCRC(seq uint64, kind string, data []byte) uint32 {
	crc := ^uint32(0)
	for i := 0; i < 8; i++ {
		crc = crc32.IEEETable[byte(crc)^byte(seq>>(8*i))] ^ crc>>8
	}
	for i := 0; i < len(kind); i++ {
		crc = crc32.IEEETable[byte(crc)^kind[i]] ^ crc>>8
	}
	return crc32.Update(^crc, crc32.IEEETable, data)
}

// The line layout Append writes and the scanner parses without
// reflection — byte for byte what encoding/json emits for an Entry whose
// kind needs no escaping:
//
//	{"seq":N,"kind":"K","data":RAW,"crc":N}
//
// with the data member absent when the entry carries none.
const (
	lineSeq  = `{"seq":`
	lineKind = `,"kind":"`
	lineData = `,"data":`
	lineCRC  = `,"crc":`
)

// plainKindByte reports whether encoding/json writes c inside a string
// unescaped: printable ASCII other than the quote, the backslash and the
// HTML-escaped <, > and &.
func plainKindByte(c byte) bool {
	return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// plainKind reports whether kind fits the line layout unescaped.
func plainKind(kind string) bool {
	for i := 0; i < len(kind); i++ {
		if !plainKindByte(kind[i]) {
			return false
		}
	}
	return true
}

// appendLine appends the layout line of one entry, newline included. The
// kind must be plain and data compact JSON as json.Marshal emits it.
func appendLine(dst []byte, seq uint64, kind string, data []byte, crc uint32) []byte {
	dst = append(dst, lineSeq...)
	dst = strconv.AppendUint(dst, seq, 10)
	dst = append(dst, lineKind...)
	dst = append(dst, kind...)
	dst = append(dst, '"')
	if len(data) > 0 {
		dst = append(dst, lineData...)
		dst = append(dst, data...)
	}
	dst = append(dst, lineCRC...)
	dst = strconv.AppendUint(dst, uint64(crc), 10)
	return append(dst, '}', '\n')
}

// parseLine parses one line in the exact layout appendLine writes, without
// its newline. The seq and kind are read from the front and the CRC from
// the back, so whatever lies between is the data, keys and all. It reports
// false for any other line, which the scanner then hands to json.Unmarshal:
// every line parseLine accepts decodes to the same Entry there. Data
// aliases line.
func parseLine(line []byte) (Entry, bool) {
	rest, ok := bytes.CutPrefix(line, []byte(lineSeq))
	if !ok {
		return Entry{}, false
	}
	seq, n := leadingUint(rest, math.MaxUint64)
	if n == 0 {
		return Entry{}, false
	}
	if rest, ok = bytes.CutPrefix(rest[n:], []byte(lineKind)); !ok {
		return Entry{}, false
	}
	k := 0
	for k < len(rest) && plainKindByte(rest[k]) {
		k++
	}
	kind := rest[:k]
	if rest, ok = bytes.CutPrefix(rest[k:], []byte(`"`)); !ok {
		return Entry{}, false
	}
	if rest, ok = bytes.CutSuffix(rest, []byte("}")); !ok {
		return Entry{}, false
	}
	d := len(rest)
	for d > 0 && rest[d-1] >= '0' && rest[d-1] <= '9' {
		d--
	}
	crc, n := leadingUint(rest[d:], math.MaxUint32)
	if n == 0 || n != len(rest)-d {
		return Entry{}, false
	}
	if rest, ok = bytes.CutSuffix(rest[:d], []byte(lineCRC)); !ok {
		return Entry{}, false
	}
	var data []byte
	if len(rest) > 0 {
		if data, ok = bytes.CutPrefix(rest, []byte(lineData)); !ok || !bareJSON(data) {
			return Entry{}, false
		}
	}
	return Entry{Seq: seq, Kind: internKind(kind), Data: data, CRC: uint32(crc)}, true
}

// leadingUint parses the canonical decimal at the front of b — no sign, no
// leading zero — and returns it with its length, or length 0 when b does
// not start with one or it exceeds max.
func leadingUint(b []byte, max uint64) (uint64, int) {
	if len(b) > 1 && b[0] == '0' && b[1] >= '0' && b[1] <= '9' {
		return 0, 0
	}
	var v uint64
	n := 0
	for ; n < len(b) && b[n] >= '0' && b[n] <= '9'; n++ {
		d := uint64(b[n] - '0')
		if v > (max-d)/10 {
			return 0, 0
		}
		v = v*10 + d
	}
	return v, n
}

// bareJSON reports whether b is one valid JSON value with no surrounding
// whitespace — the bytes json.Unmarshal would store in a RawMessage.
func bareJSON(b []byte) bool {
	if len(b) == 0 || isSpace(b[0]) || isSpace(b[len(b)-1]) {
		return false
	}
	return validJSON(b)
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// internKind returns the package's constant for a known kind, so scanning
// a journal allocates no kind strings.
func internKind(b []byte) string {
	switch string(b) {
	case kindInit:
		return kindInit
	case kindSubmit:
		return kindSubmit
	case kindTick:
		return kindTick
	case kindFault:
		return kindFault
	case kindSupply:
		return kindSupply
	case kindFinalize:
		return kindFinalize
	}
	return string(b)
}

// scanJournal parses the intact prefix of a journal image: the entries up
// to the first line that lacks its terminating newline, does not decode,
// breaks the sequence or fails its CRC, and the byte length of that
// prefix. Lines in the layout Append writes are parsed in place; any other
// line goes through json.Unmarshal. Entry data aliases buf.
//
// A journal of at least parallelScanMin bytes is scanned in up to
// GOMAXPROCS chunks at once, one per parallelScanMin bytes: a smaller one
// costs less to scan than to hand to another goroutine.
func scanJournal(buf []byte) ([]Entry, int64) {
	chunks := min(runtime.GOMAXPROCS(0), len(buf)/parallelScanMin)
	return scanJournalChunks(buf, max(chunks, 1))
}

// parallelScanMin is the journal size, and the least chunk size, from
// which scanJournal splits the scan across goroutines.
const parallelScanMin = 64 << 10

// scanJournalChunks is scanJournal cutting buf, at line boundaries, into at
// most chunks pieces of about equal size and scanning each on a goroutine
// of its own, the first on the caller's. Every line stands alone — its entry must carry the seq one
// past its line number — so each piece is judged without the others, into
// its own range of one presized slice. The intact prefix then runs
// through every piece that was intact to its end and stops inside the
// first that was not, which is exactly where the serial scan stops.
func scanJournalChunks(buf []byte, chunks int) ([]Entry, int64) {
	type piece struct {
		start, end int // byte range in buf, ending just past a newline or at len(buf)
		first      int // line number of its first line
		lines      int // newline-terminated lines in the range
		intact     int // leading lines that scanned intact
		good       int // their byte length
	}
	pieces := make([]piece, 0, chunks)
	total := 0
	for start := 0; start < len(buf); {
		// Piece k ends at the first newline from k+1 chunks' share of
		// buf on; the last share ends at len(buf), so that piece takes
		// the rest, torn tail included.
		end := len(buf)
		cut := max(start, len(buf)*(len(pieces)+1)/chunks)
		if n := bytes.IndexByte(buf[cut:], '\n'); n >= 0 {
			end = cut + n + 1
		}
		lines := bytes.Count(buf[start:end], []byte{'\n'})
		pieces = append(pieces, piece{start: start, end: end, first: total, lines: lines})
		total += lines
		start = end
	}
	entries := make([]Entry, total)
	scan := func(p *piece) {
		p.intact, p.good = scanLines(buf[p.start:p.end], entries[p.first:p.first+p.lines], uint64(p.first)+1)
	}
	var wg sync.WaitGroup
	for k := 1; k < len(pieces); k++ {
		wg.Add(1)
		go func(p *piece) {
			defer wg.Done()
			scan(p)
		}(&pieces[k])
	}
	if len(pieces) > 0 {
		scan(&pieces[0])
	}
	wg.Wait()
	n, good := 0, 0
	for _, p := range pieces {
		n += p.intact
		good += p.good
		if p.intact < p.lines {
			break
		}
	}
	return entries[:n], int64(good)
}

// scanLines parses the newline-terminated lines of buf into out, which
// has one slot per line, stopping at the first line that does not decode,
// does not carry the next seq (starting from seq) or fails its CRC. It
// returns how many lines were intact and their byte length.
func scanLines(buf []byte, out []Entry, seq uint64) (int, int) {
	good := 0
	for k := range out {
		n := bytes.IndexByte(buf[good:], '\n')
		line := buf[good : good+n]
		e, ok := parseLine(line)
		if !ok {
			e, ok = decodeLine(line)
		}
		if !ok || e.Seq != seq+uint64(k) || e.CRC != entryCRC(e.Seq, e.Kind, e.Data) {
			return k, good
		}
		out[k] = e
		good += n + 1
	}
	return len(out), good
}

// decodeLine decodes a line outside the layout generically. It is a
// function of its own so that only its Entry escapes to the heap, not the
// one every parsed line fills.
func decodeLine(line []byte) (Entry, bool) {
	var e Entry
	err := json.Unmarshal(line, &e)
	return e, err == nil
}

// Journal is an append-only JSONL write-ahead log. Not safe for concurrent
// use; the serve runner serializes all access behind its apply loop.
type Journal struct {
	f     *os.File
	next  uint64 // next sequence number to assign
	fsync bool
}

// OpenJournal opens (creating if absent) the journal at path, scans any
// existing entries, discards a torn tail, and returns the journal
// positioned for appending plus the intact entries in order. An entry is
// intact only with its terminating newline. With fsync set, every append
// is synced to stable storage before returning — the durability the
// write-ahead contract wants; tests turn it off for speed. Entry data
// aliases one buffer holding the file's intact prefix.
func OpenJournal(path string, fsync bool) (*Journal, []Entry, error) {
	return openJournal(path, fsync, 0)
}

// openJournal is OpenJournal for a journal that must hold at least the
// entries through seq need: when its intact prefix ends earlier it returns
// an error before truncating anything, so the caller never reissues a
// sequence number that was already acknowledged.
func openJournal(path string, fsync bool, need uint64) (*Journal, []Entry, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: opening journal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, nil, fmt.Errorf("serve: sizing journal: %w", err)
	}
	buf := make([]byte, st.Size())
	if _, err := io.ReadFull(f, buf); err != nil {
		_ = f.Close()
		return nil, nil, fmt.Errorf("serve: reading journal: %w", err)
	}
	entries, good := scanJournal(buf)
	if last := uint64(len(entries)); last < need {
		_ = f.Close()
		return nil, nil, fmt.Errorf("serve: journal ends at seq %d, before checkpoint seq %d", last, need)
	}
	if err := f.Truncate(good); err != nil {
		_ = f.Close()
		return nil, nil, fmt.Errorf("serve: truncating torn journal tail: %w", err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, nil, fmt.Errorf("serve: seeking journal: %w", err)
	}
	return &Journal{f: f, next: uint64(len(entries)) + 1, fsync: fsync}, entries, nil
}

// Append journals one mutation and makes it durable (when fsync is on)
// before returning, handing back the assigned sequence number. The caller
// applies the mutation only after Append returns — write-ahead, not
// write-behind.
func (j *Journal) Append(kind string, data any) (uint64, error) {
	var raw json.RawMessage
	if data != nil {
		b, err := json.Marshal(data)
		if err != nil {
			return 0, fmt.Errorf("serve: encoding journal entry %s: %w", kind, err)
		}
		raw = b
	}
	crc := entryCRC(j.next, kind, raw)
	var line []byte
	if plainKind(kind) {
		line = appendLine(make([]byte, 0, len(raw)+len(kind)+64), j.next, kind, raw, crc)
	} else {
		b, err := json.Marshal(Entry{Seq: j.next, Kind: kind, Data: raw, CRC: crc})
		if err != nil {
			return 0, fmt.Errorf("serve: encoding journal entry %s: %w", kind, err)
		}
		line = append(b, '\n')
	}
	if _, err := j.f.Write(line); err != nil {
		return 0, fmt.Errorf("serve: appending journal entry %s: %w", kind, err)
	}
	if j.fsync {
		if err := j.f.Sync(); err != nil {
			return 0, fmt.Errorf("serve: syncing journal: %w", err)
		}
	}
	j.next++
	return j.next - 1, nil
}

// Close syncs and closes the journal file.
func (j *Journal) Close() error {
	if err := j.f.Sync(); err != nil {
		// The sync failure is the durability verdict; the close is best-effort.
		_ = j.f.Close()
		return err
	}
	return j.f.Close()
}
