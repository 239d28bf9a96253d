// Package value defines the shared data domain of the FVN toolchain.
//
// NDlog tuples, logical terms, routing-algebra signatures, and simulator
// messages all carry values drawn from the same small universe: integers,
// strings, booleans, node addresses, and lists (used for path vectors).
// Keeping one canonical representation lets the translator move data between
// the Datalog engine, the theorem prover, and the distributed runtime
// without conversion layers.
package value

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a V.
type Kind uint8

// The value kinds of the FVN data domain.
const (
	KindInt Kind = iota
	KindStr
	KindBool
	KindAddr // a node address such as "n3"; distinct from Str so location analysis can type-check
	KindList // a list of values, e.g. an NDlog path vector
)

// String returns the NDlog type name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindStr:
		return "string"
	case KindBool:
		return "bool"
	case KindAddr:
		return "addr"
	case KindList:
		return "list"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// V is a value of the FVN data domain. The zero value is the integer 0.
//
// V is a small tagged union: exactly one of I, S, L is meaningful,
// selected by K. Booleans are stored in I (0 or 1).
type V struct {
	K Kind
	I int64
	S string
	L []V
}

// Int returns an integer value.
func Int(i int64) V { return V{K: KindInt, I: i} }

// Str returns a string value.
func Str(s string) V { return V{K: KindStr, S: s} }

// Bool returns a boolean value.
func Bool(b bool) V {
	if b {
		return V{K: KindBool, I: 1}
	}
	return V{K: KindBool, I: 0}
}

// Addr returns a node-address value.
func Addr(a string) V { return V{K: KindAddr, S: a} }

// List returns a list value. The slice is used directly; callers that
// retain the argument should pass a copy.
func List(vs ...V) V { return V{K: KindList, L: vs} }

// True reports whether v is the boolean true.
func (v V) True() bool { return v.K == KindBool && v.I != 0 }

// IsBool reports whether v is a boolean.
func (v V) IsBool() bool { return v.K == KindBool }

// Equal reports whether v and w are structurally identical values.
func (v V) Equal(w V) bool {
	if v.K != w.K {
		return false
	}
	switch v.K {
	case KindInt, KindBool:
		return v.I == w.I
	case KindStr, KindAddr:
		return v.S == w.S
	case KindList:
		if len(v.L) != len(w.L) {
			return false
		}
		for i := range v.L {
			if !v.L[i].Equal(w.L[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Compare orders values totally: first by kind, then by content.
// Lists compare lexicographically. It returns -1, 0, or +1.
func (v V) Compare(w V) int {
	if v.K != w.K {
		if v.K < w.K {
			return -1
		}
		return 1
	}
	switch v.K {
	case KindInt, KindBool:
		switch {
		case v.I < w.I:
			return -1
		case v.I > w.I:
			return 1
		}
		return 0
	case KindStr, KindAddr:
		return strings.Compare(v.S, w.S)
	case KindList:
		for i := 0; i < len(v.L) && i < len(w.L); i++ {
			if c := v.L[i].Compare(w.L[i]); c != 0 {
				return c
			}
		}
		switch {
		case len(v.L) < len(w.L):
			return -1
		case len(v.L) > len(w.L):
			return 1
		}
		return 0
	default:
		return 0
	}
}

// String renders the value in NDlog literal syntax.
func (v V) String() string {
	switch v.K {
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case KindStr:
		return strconv.Quote(v.S)
	case KindAddr:
		return v.S
	case KindList:
		parts := make([]string, len(v.L))
		for i, e := range v.L {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, ",") + "]"
	default:
		return "?"
	}
}

// Key returns a canonical encoding of v usable as a map key. Distinct
// values always have distinct keys.
func (v V) Key() string {
	var b strings.Builder
	v.appendKey(&b)
	return b.String()
}

func (v V) appendKey(b *strings.Builder) {
	switch v.K {
	case KindInt:
		b.WriteByte('i')
		b.WriteString(strconv.FormatInt(v.I, 10))
	case KindBool:
		b.WriteByte('b')
		if v.I != 0 {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	case KindStr:
		b.WriteByte('s')
		b.WriteString(strconv.Itoa(len(v.S)))
		b.WriteByte(':')
		b.WriteString(v.S)
	case KindAddr:
		b.WriteByte('a')
		b.WriteString(strconv.Itoa(len(v.S)))
		b.WriteByte(':')
		b.WriteString(v.S)
	case KindList:
		b.WriteByte('l')
		b.WriteString(strconv.Itoa(len(v.L)))
		b.WriteByte('[')
		for _, e := range v.L {
			e.appendKey(b)
		}
		b.WriteByte(']')
	}
}

// AppendKey appends the canonical encoding of v (identical to Key) to b
// and returns the extended slice. It lets hot paths build map keys into a
// reusable buffer and look them up with the non-allocating m[string(b)]
// conversion.
func (v V) AppendKey(b []byte) []byte {
	switch v.K {
	case KindInt:
		b = append(b, 'i')
		b = strconv.AppendInt(b, v.I, 10)
	case KindBool:
		b = append(b, 'b')
		if v.I != 0 {
			b = append(b, '1')
		} else {
			b = append(b, '0')
		}
	case KindStr:
		b = append(b, 's')
		b = strconv.AppendInt(b, int64(len(v.S)), 10)
		b = append(b, ':')
		b = append(b, v.S...)
	case KindAddr:
		b = append(b, 'a')
		b = strconv.AppendInt(b, int64(len(v.S)), 10)
		b = append(b, ':')
		b = append(b, v.S...)
	case KindList:
		b = append(b, 'l')
		b = strconv.AppendInt(b, int64(len(v.L)), 10)
		b = append(b, '[')
		for _, e := range v.L {
			b = e.AppendKey(b)
		}
		b = append(b, ']')
	}
	return b
}

// Tuple is an ordered sequence of values, e.g. the arguments of a fact.
type Tuple []V

// Key returns a canonical encoding of the tuple usable as a map key.
func (t Tuple) Key() string {
	var b strings.Builder
	for i, v := range t {
		if i > 0 {
			b.WriteByte('|')
		}
		v.appendKey(&b)
	}
	return b.String()
}

// AppendKey appends the canonical encoding of the tuple (identical to
// Key) to b and returns the extended slice.
func (t Tuple) AppendKey(b []byte) []byte {
	for i, v := range t {
		if i > 0 {
			b = append(b, '|')
		}
		b = v.AppendKey(b)
	}
	return b
}

// Equal reports whether two tuples are element-wise equal.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !t[i].Equal(u[i]) {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically.
func (t Tuple) Compare(u Tuple) int {
	for i := 0; i < len(t) && i < len(u); i++ {
		if c := t[i].Compare(u[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(u):
		return -1
	case len(t) > len(u):
		return 1
	}
	return 0
}

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	u := make(Tuple, len(t))
	for i, v := range t {
		u[i] = v.clone()
	}
	return u
}

func (v V) clone() V {
	if v.K != KindList {
		return v
	}
	l := make([]V, len(v.L))
	for i, e := range v.L {
		l[i] = e.clone()
	}
	return V{K: KindList, L: l}
}

// String renders the tuple as a parenthesized list.
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// SortTuples sorts a slice of tuples lexicographically, for deterministic
// output. It allocates nothing, so callers on a hot path (dist's per-node
// Query) can sort freely.
func SortTuples(ts []Tuple) {
	slices.SortFunc(ts, Tuple.Compare)
}
