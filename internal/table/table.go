// Package table defines the core data model for data-lake tables:
// typed columns of string-encoded values plus table-level metadata.
// It is the substrate every discovery component operates on.
package table

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Type is the inferred primitive type of a column.
type Type int

// Column types, from most to least specific for inference purposes.
const (
	TypeUnknown Type = iota
	TypeBool
	TypeInt
	TypeFloat
	TypeDate
	TypeString
)

var typeNames = map[Type]string{
	TypeUnknown: "unknown",
	TypeBool:    "bool",
	TypeInt:     "int",
	TypeFloat:   "float",
	TypeDate:    "date",
	TypeString:  "string",
}

func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// IsNumeric reports whether the type holds numbers.
func (t Type) IsNumeric() bool { return t == TypeInt || t == TypeFloat }

// Column is a named, typed sequence of string-encoded values.
// Missing values are represented by the empty string.
//
// Concurrency contract: a Column is safe for concurrent reads —
// including the lazily memoized Distinct/DistinctSorted/Cardinality
// statistics — as long as Values is not mutated. After an in-place
// mutation of Values, call InvalidateCache before the next read; the
// mutation and invalidation must not race with readers.
type Column struct {
	Name   string
	Type   Type
	Values []string

	statsMu  sync.Mutex
	distinct map[string]int // lazily built value -> count
	ordered  []string       // distinct values in first-occurrence order
}

// NewColumn builds a column and infers its type from the values.
func NewColumn(name string, values []string) *Column {
	c := &Column{Name: name, Values: values}
	c.Type = InferType(values)
	return c
}

// Len returns the number of values (including missing ones).
func (c *Column) Len() int { return len(c.Values) }

// stats returns the memoized distinct-value histogram and the distinct
// values in first-occurrence order, building both on first use. The
// returned structures are immutable until InvalidateCache; callers may
// read them without holding the lock.
func (c *Column) stats() (map[string]int, []string) {
	c.statsMu.Lock()
	if c.distinct == nil {
		m := make(map[string]int, len(c.Values))
		var ordered []string
		for _, v := range c.Values {
			if v == "" {
				continue
			}
			if m[v] == 0 {
				ordered = append(ordered, v)
			}
			m[v]++
		}
		c.distinct, c.ordered = m, ordered
	}
	m, ordered := c.distinct, c.ordered
	c.statsMu.Unlock()
	return m, ordered
}

// counts returns the distinct-value histogram, building it on first use.
func (c *Column) counts() map[string]int {
	m, _ := c.stats()
	return m
}

// Distinct returns the distinct non-missing values in first-occurrence
// order. The result is a fresh slice the caller may mutate.
func (c *Column) Distinct() []string {
	_, ordered := c.stats()
	return append([]string(nil), ordered...)
}

// DistinctSorted returns the distinct non-missing values sorted
// lexicographically, for deterministic iteration.
func (c *Column) DistinctSorted() []string {
	out := c.Distinct()
	sort.Strings(out)
	return out
}

// Cardinality returns the number of distinct non-missing values.
func (c *Column) Cardinality() int { return len(c.counts()) }

// NullFraction returns the fraction of missing (empty) values.
func (c *Column) NullFraction() float64 {
	if len(c.Values) == 0 {
		return 0
	}
	n := 0
	for _, v := range c.Values {
		if v == "" {
			n++
		}
	}
	return float64(n) / float64(len(c.Values))
}

// Numbers parses the column as float64s, skipping unparsable or
// missing entries. The second result is the count of parsed values.
func (c *Column) Numbers() ([]float64, int) {
	out := make([]float64, 0, len(c.Values))
	for _, v := range c.Values {
		if v == "" {
			continue
		}
		if f, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil {
			out = append(out, f)
		}
	}
	return out, len(out)
}

// InvalidateCache discards lazily computed statistics. Call after
// mutating Values in place; must not race with concurrent readers.
func (c *Column) InvalidateCache() {
	c.statsMu.Lock()
	c.distinct, c.ordered = nil, nil
	c.statsMu.Unlock()
}

// Table is a named collection of equal-length columns plus metadata.
type Table struct {
	ID          string
	Name        string
	Description string
	Tags        []string
	Columns     []*Column
}

// New constructs a table from columns, validating equal lengths.
func New(id, name string, cols []*Column) (*Table, error) {
	if len(cols) > 0 {
		n := cols[0].Len()
		for _, c := range cols[1:] {
			if c.Len() != n {
				return nil, fmt.Errorf("table %q: column %q has %d rows, want %d", id, c.Name, c.Len(), n)
			}
		}
	}
	return &Table{ID: id, Name: name, Columns: cols}, nil
}

// MustNew is New but panics on error; for tests and generators.
func MustNew(id, name string, cols []*Column) *Table {
	t, err := New(id, name, cols)
	if err != nil {
		panic(err)
	}
	return t
}

// NumRows returns the row count (0 for a table without columns).
func (t *Table) NumRows() int {
	if len(t.Columns) == 0 {
		return 0
	}
	return t.Columns[0].Len()
}

// NumCols returns the column count.
func (t *Table) NumCols() int { return len(t.Columns) }

// Column returns the first column with the given name, or nil.
func (t *Table) Column(name string) *Column {
	for _, c := range t.Columns {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// ColumnIndex returns the index of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Row returns the i-th row as a slice parallel to Columns.
func (t *Table) Row(i int) []string {
	row := make([]string, len(t.Columns))
	for j, c := range t.Columns {
		row[j] = c.Values[i]
	}
	return row
}

// Header returns the column names in order.
func (t *Table) Header() []string {
	h := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		h[i] = c.Name
	}
	return h
}

// ColumnKey returns the canonical "tableID.columnName" key used by
// indexes to address a single column.
func ColumnKey(tableID, column string) string { return tableID + "." + column }

// SplitColumnKey splits a key produced by ColumnKey. The column name
// is everything after the first dot, so table IDs must not contain dots.
func SplitColumnKey(key string) (tableID, column string) {
	i := strings.Index(key, ".")
	if i < 0 {
		return key, ""
	}
	return key[:i], key[i+1:]
}

// InferType infers the dominant primitive type of a value sample.
// A column is typed T if at least 90% of its non-missing values parse
// as T, preferring the most specific candidate.
func InferType(values []string) Type {
	var total, ints, floats, bools, dates int
	for _, v := range values {
		v = strings.TrimSpace(v)
		if v == "" {
			continue
		}
		total++
		if isBool(v) {
			bools++
		}
		// For a text cell strconv would allocate two errors to say no.
		if mayBeNumber(v) {
			if _, err := strconv.ParseInt(v, 10, 64); err == nil {
				ints++
				floats++ // every int parses as float
			} else if _, err := strconv.ParseFloat(v, 64); err == nil {
				floats++
			}
		}
		if isDate(v) {
			dates++
		}
	}
	if total == 0 {
		return TypeUnknown
	}
	const q = 0.9
	threshold := int(float64(total)*q + 0.5)
	if threshold == 0 {
		threshold = 1
	}
	switch {
	case bools >= threshold:
		return TypeBool
	case ints >= threshold:
		return TypeInt
	case floats >= threshold:
		return TypeFloat
	case dates >= threshold:
		return TypeDate
	default:
		return TypeString
	}
}

// mayBeNumber reports whether strconv could parse v as an int or a
// float: after one optional sign a number starts with a digit or a
// point, or is a spelling of infinity or NaN. A true answer decides
// nothing; strconv still does.
func mayBeNumber(v string) bool {
	if v != "" && (v[0] == '+' || v[0] == '-') {
		v = v[1:]
	}
	if v == "" {
		return false
	}
	switch c := v[0]; {
	case '0' <= c && c <= '9', c == '.':
		return true
	case c == 'i', c == 'I', c == 'n', c == 'N':
		return strings.EqualFold(v, "inf") || strings.EqualFold(v, "infinity") || strings.EqualFold(v, "nan")
	}
	return false
}

func isBool(v string) bool {
	switch strings.ToLower(v) {
	case "true", "false", "yes", "no", "t", "f":
		return true
	}
	return false
}

// isDate recognizes the common ISO forms YYYY-MM-DD and YYYY/MM/DD.
func isDate(v string) bool {
	if len(v) != 10 {
		return false
	}
	sep := v[4]
	if sep != '-' && sep != '/' {
		return false
	}
	if v[7] != sep {
		return false
	}
	for i, ch := range []byte(v) {
		if i == 4 || i == 7 {
			continue
		}
		if ch < '0' || ch > '9' {
			return false
		}
	}
	mo, _ := strconv.Atoi(v[5:7])
	dy, _ := strconv.Atoi(v[8:10])
	return mo >= 1 && mo <= 12 && dy >= 1 && dy <= 31
}

// ContentHash fingerprints the table's full content — ID, metadata,
// and every column's name, type, and values — with FNV-1a 64. Each
// field is hashed with a length prefix so adjacent fields cannot
// collide by concatenation. The hash covers exactly the fields the
// catalog snapshot codec round-trips, so a saved-and-reloaded table
// hashes identically to the in-memory original. Lake generations fold
// these hashes in, which is how replacing a table's contents (same ID,
// different bytes) produces a different generation.
func (t *Table) ContentHash() uint64 {
	h := newContentHash()
	h.str(t.ID)
	h.str(t.Name)
	h.str(t.Description)
	h.strs(t.Tags)
	h.u64(uint64(len(t.Columns)))
	for _, c := range t.Columns {
		h.str(c.Name)
		h.u64(uint64(c.Type))
		h.strs(c.Values)
	}
	return h.sum
}

const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

type contentHash struct{ sum uint64 }

func newContentHash() *contentHash { return &contentHash{sum: fnvOffset64} }

func (h *contentHash) bytes(s string) {
	for i := 0; i < len(s); i++ {
		h.sum ^= uint64(s[i])
		h.sum *= fnvPrime64
	}
}

func (h *contentHash) u64(v uint64) {
	for i := 0; i < 8; i++ {
		h.sum ^= v & 0xFF
		h.sum *= fnvPrime64
		v >>= 8
	}
}

func (h *contentHash) str(s string) {
	h.u64(uint64(len(s)))
	h.bytes(s)
}

func (h *contentHash) strs(ss []string) {
	h.u64(uint64(len(ss)))
	for _, s := range ss {
		h.str(s)
	}
}
