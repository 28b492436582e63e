package serve

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// validJSONSeeds sit on every edge of the grammar validJSON must judge as
// encoding/json does: nesting at and past the depth limit, each escape and
// malformed \u escapes, number forms, control and non-UTF-8 bytes, literal
// prefixes and trailing data.
func validJSONSeeds() []string {
	nest := func(open, close string, n int) string {
		return strings.Repeat(open, n) + strings.Repeat(close, n)
	}
	seeds := []string{
		nest("[", "]", maxNestingDepth),
		nest("[", "]", maxNestingDepth+1),
		strings.Repeat(`{"a":`, maxNestingDepth) + "1" + strings.Repeat("}", maxNestingDepth),
		strings.Repeat(`{"a":`, maxNestingDepth+1) + "1" + strings.Repeat("}", maxNestingDepth+1),
		strings.Repeat(`[{"a":`, maxNestingDepth/2) + "[]" + strings.Repeat("}]", maxNestingDepth/2),
		strings.Repeat(`[{"a":`, maxNestingDepth/2) + "{}" + strings.Repeat("}]", maxNestingDepth/2),
		strings.Repeat("[", 70) + strings.Repeat("]", 69),
		strings.Repeat("[", 64) + "{}" + strings.Repeat("]", 64),
		`"\"\\\/\b\f\n\r\t"`, `"Aé😀￿ꯍ"`,
		`"\a"`, `"\x41"`, `"\u"`, `"\u12"`, `"\u123"`, `"\u12G4"`, `"\uZZZZ"`, `"\u123 "`, `"\`, `"\"`, `"abc`, `"`,
		"\"\x00\"", "\"\x1f\"", "\"\x7f\"", "\"\t\"", "\"\n\"",
		"\"\xff\xfe\"", "\"\xc3\x28\"", "\"\xed\xa0\x80\"", "\xff", "[\"\x80\"]",
		"0", "-0", "-", "01", "-01", "1.", "1.5", ".5", "1e", "1e+", "1e-5", "1E+05", "1e05", "+1", "--1",
		"0.0e0", "-0.0", "1.e5", "0x10", "1ee5", "1e5.5", "123456789012345678901234567890", "-1.5E-300", "NaN", "Infinity",
		"true", "false", "null", "nul", "tru", "fals", "truex", "nullnull", "True", "NULL", "t", "f", "n",
		"", " ", "\t\n\r ", " 1 ", "\v1", "\f1", "1 2", "{} x", "[]]", "{}}", "[1,]", "[,1]", "[1 2]", "[1,,2]",
		`{"a":1,}`, `{"a" 1}`, `{"a":}`, `{a:1}`, `{1:1}`, `{"a":1 "b":2}`, `{"a":1}` + "\x00", "[\x00]",
		` { "a" : [ 1 , 2.5e3 , -0 , "x" , true , false , null , { } , [ ] ] } `,
		`{"seq":1,"kind":"tick","data":{"to":1},"crc":5}`,
		`{"key":"k1","job":{"ID":1,"Class":0,"Submit":0,"Duration":3,"CPU":0.75,"RAMGB":1.5,"IOBound":false}}`,
		"[", "]", "{", "}", ",", ":", `{"a"`, `{"a":`, `{"a":1`, `[1`, `[1,`,
	}
	return seeds
}

// FuzzValidJSON holds validJSON to json.Valid on arbitrary input.
func FuzzValidJSON(f *testing.F) {
	for _, s := range validJSONSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if got, want := validJSON(b), json.Valid(b); got != want {
			t.Fatalf("validJSON(%.80q) = %v, json.Valid says %v", b, got, want)
		}
	})
}

// TestValidJSONAllocs checks that validJSON allocates nothing, even at the
// nesting limit.
func TestValidJSONAllocs(t *testing.T) {
	deep := []byte(strings.Repeat("[", maxNestingDepth) + strings.Repeat("]", maxNestingDepth))
	payload := []byte(`{"key":"ké1","job":{"ID":1,"CPU":0.75,"IOBound":false,"x":[null,true,-1e-3]}}`)
	for _, b := range [][]byte{deep, payload} {
		if got := testing.AllocsPerRun(20, func() { _ = validJSON(b) }); got != 0 {
			t.Errorf("validJSON on %d bytes allocates %v times", len(b), got)
		}
	}
}

// historyPayloads returns the data of every entry of an n-entry history
// journal.
func historyPayloads(tb testing.TB, n int) [][]byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "journal.jsonl")
	historyJournal(tb, path, n)
	blob, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	entries, _ := scanJournal(blob)
	if len(entries) != n {
		tb.Fatalf("scanned %d entries, wrote %d", len(entries), n)
	}
	payloads := make([][]byte, n)
	for i, e := range entries {
		payloads[i] = e.Data
	}
	return payloads
}

// BenchmarkValidJSON checks the payloads of a ~4k-entry history journal
// with encoding/json and with validJSON. Its result is the number of
// payloads judged valid.
func BenchmarkValidJSON(b *testing.B) {
	payloads := historyPayloads(b, 4200)
	for _, c := range []struct {
		name  string
		valid func([]byte) bool
	}{
		{"encoding_json", json.Valid},
		{"validJSON", validJSON},
	} {
		b.Run(c.name, func(b *testing.B) {
			valid := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				valid = 0
				for _, p := range payloads {
					if c.valid(p) {
						valid++
					}
				}
			}
			b.ReportMetric(float64(valid), "result")
		})
	}
}
