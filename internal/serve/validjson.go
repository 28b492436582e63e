package serve

import (
	"encoding/binary"
	"math/bits"
)

// maxNestingDepth is encoding/json's nesting limit: json.Valid accepts
// 10,000 levels of arrays and objects and refuses a 10,001st.
const maxNestingDepth = 10000

// validJSON reports whether b is one JSON value with optional surrounding
// whitespace — json.Valid's verdict on every input, without its per-byte
// state-machine calls or any allocation. Like encoding/json it takes any
// byte from 0x20 up inside a string, invalid UTF-8 included, and refuses
// nesting deeper than maxNestingDepth.
//
// Nesting is tracked as one bit per open level, set for an object and
// clear for an array, in an array on the stack: the parse needs no
// recursion and no heap-grown stack of states. The first pass keeps 64
// levels in one word; only a value nested deeper is parsed again with
// room for every level the limit allows, so the common case does not
// clear that larger array.
func validJSON(b []byte) bool {
	var shallow [1]uint64
	ok, deeper := validNested(b, shallow[:])
	if deeper {
		var objects [(maxNestingDepth + 63) / 64]uint64
		ok, _ = validNested(b, objects[:])
	}
	return ok
}

// validNested is validJSON with room for len(objects)*64 open levels. It
// reports deeper, with ok false, when b nests past that room but not past
// maxNestingDepth.
func validNested(b []byte, objects []uint64) (ok, deeper bool) {
	depth := 0
	i := skipSpace(b, 0)
	for {
		// A value starts at b[i].
		if i >= len(b) {
			return false, false
		}
		switch c := b[i]; c {
		case '{', '[':
			// encoding/json counts a level on its opening bracket, so
			// even an empty container past the limit is refused.
			if depth == maxNestingDepth {
				return false, false
			}
			i = skipSpace(b, i+1)
			if i < len(b) && b[i] == c+2 { // '}' is '{'+2 and ']' is '['+2
				i++
				break
			}
			if depth == len(objects)*64 {
				return false, true
			}
			if c == '{' {
				objects[depth>>6] |= 1 << (depth & 63)
			} else {
				objects[depth>>6] &^= 1 << (depth & 63)
			}
			depth++
			if c == '{' {
				if i = memberName(b, i); i < 0 {
					return false, false
				}
			}
			continue
		case '"':
			if i = stringEnd(b, i+1); i < 0 {
				return false, false
			}
		case 't':
			if i = literalEnd(b, i, "true"); i < 0 {
				return false, false
			}
		case 'f':
			if i = literalEnd(b, i, "false"); i < 0 {
				return false, false
			}
		case 'n':
			if i = literalEnd(b, i, "null"); i < 0 {
				return false, false
			}
		default:
			if i = numberEnd(b, i); i < 0 {
				return false, false
			}
		}
		// A value ended at b[i]: close containers until a comma starts the
		// next value or the input ends.
		for {
			i = skipSpace(b, i)
			if depth == 0 {
				return i == len(b), false
			}
			if i >= len(b) {
				return false, false
			}
			top := depth - 1
			object := objects[top>>6]>>(top&63)&1 != 0
			if b[i] == ',' {
				i = skipSpace(b, i+1)
				if object {
					if i = memberName(b, i); i < 0 {
						return false, false
					}
				}
				break
			}
			if object && b[i] != '}' || !object && b[i] != ']' {
				return false, false
			}
			depth--
			i++
		}
	}
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && b[i] <= ' ' && isSpace(b[i]) {
		i++
	}
	return i
}

// memberName parses an object member's name and colon from b[i] on and
// returns the index of its value, or -1.
func memberName(b []byte, i int) int {
	if i >= len(b) || b[i] != '"' {
		return -1
	}
	if i = stringEnd(b, i+1); i < 0 {
		return -1
	}
	i = skipSpace(b, i)
	if i >= len(b) || b[i] != ':' {
		return -1
	}
	return skipSpace(b, i+1)
}

// plainStringByte marks the bytes a JSON string holds as themselves:
// everything from 0x20 up except the quote and the backslash.
var plainStringByte = func() (t [256]bool) {
	for c := 0x20; c < 256; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// stringEnd returns the index just past the closing quote of the string
// whose contents start at b[i], or -1. It skips plain bytes eight at a
// time: (x - lanesOne) &^ x has a lane's high bit set where x has a zero
// byte, and (x - 0x20 in each lane) &^ x where x has a byte below 0x20.
// The borrow may also flag lanes above a hit, never below the first, so
// the lowest lane flagged for w^'"', w^'\\' or w is the first quote,
// backslash or control byte.
func stringEnd(b []byte, i int) int {
	for {
		for ; i+8 <= len(b); i += 8 {
			w := binary.LittleEndian.Uint64(b[i:])
			q := w ^ (lanesOne * '"')
			s := w ^ (lanesOne * '\\')
			m := ((q - lanesOne) &^ q) | ((s - lanesOne) &^ s) | ((w - lanesOne*0x20) &^ w)
			if m &= lanesHigh; m != 0 {
				i += bits.TrailingZeros64(m) >> 3
				break
			}
		}
		for i < len(b) && plainStringByte[b[i]] {
			i++
		}
		if i >= len(b) {
			return -1
		}
		switch b[i] {
		case '"':
			return i + 1
		case '\\':
			if i+1 >= len(b) {
				return -1
			}
			switch b[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if i+5 >= len(b) || !isHex(b[i+2]) || !isHex(b[i+3]) || !isHex(b[i+4]) || !isHex(b[i+5]) {
					return -1
				}
				i += 6
			default:
				return -1
			}
		default: // a control byte
			return -1
		}
	}
}

// Byte-lane constants for stringEnd's word-at-a-time search.
const (
	lanesOne  = 0x0101010101010101
	lanesHigh = 0x8080808080808080
)

// literalEnd returns the index just past lit at b[i], or -1.
func literalEnd(b []byte, i int, lit string) int {
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return -1
	}
	return i + len(lit)
}

// numberEnd returns the index just past the RFC 8259 number at b[i], or
// -1: an optional minus, an integer part without leading zeros, then an
// optional fraction and exponent, each with at least one digit.
func numberEnd(b []byte, i int) int {
	if b[i] == '-' {
		i++
	}
	switch {
	case i >= len(b):
		return -1
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		i = digitsEnd(b, i+1)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		if i+1 >= len(b) || !isDigit(b[i+1]) {
			return -1
		}
		i = digitsEnd(b, i+2)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			return -1
		}
		i = digitsEnd(b, i+1)
	}
	return i
}

func digitsEnd(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}
