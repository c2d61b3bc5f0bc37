// Package query implements the predicate language shared by the polyglot
// document store and the real-time invalidation engine. Speed Kit caches
// query results (product listings, category pages) in addition to single
// resources; deciding whether a database write invalidates a cached query
// result requires evaluating the query's predicate against the before- and
// after-images of the changed document. This package provides that
// predicate AST, a small text syntax for it, and deterministic
// canonicalization so that equivalent queries share one cache entry.
package query

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Op enumerates comparison operators.
type Op int

// Comparison operators supported by predicates.
const (
	OpEq Op = iota
	OpNe
	OpGt
	OpGte
	OpLt
	OpLte
	OpIn
	OpExists
	OpPrefix
	OpContains
)

var opNames = map[Op]string{
	OpEq: "=", OpNe: "!=", OpGt: ">", OpGte: ">=", OpLt: "<", OpLte: "<=",
	OpIn: "IN", OpExists: "EXISTS", OpPrefix: "PREFIX", OpContains: "CONTAINS",
}

// String returns the operator's surface syntax.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Predicate is a boolean condition over a document.
type Predicate interface {
	// Match reports whether the document satisfies the predicate.
	Match(doc Doc) bool
	// Canonical renders a normalized form: AND/OR operands sorted, values
	// formatted deterministically. Equal canonical strings imply equal
	// predicates (the converse need not hold).
	Canonical() string
	// Fields appends the set of field names the predicate reads to dst.
	Fields(dst map[string]struct{})
}

// Cmp is a single field comparison.
type Cmp struct {
	Field string
	Op    Op
	Value any   // scalar for most ops; ignored for OpExists
	Set   []any // operands for OpIn
}

// Field comparison constructors keep call sites terse and make it hard to
// build a Cmp with an inconsistent Op/Value combination.

// Eq matches documents where field equals v.
func Eq(field string, v any) Predicate { return &Cmp{Field: field, Op: OpEq, Value: v} }

// Ne matches documents where field differs from v (missing fields match).
func Ne(field string, v any) Predicate { return &Cmp{Field: field, Op: OpNe, Value: v} }

// Gt matches documents where field > v.
func Gt(field string, v any) Predicate { return &Cmp{Field: field, Op: OpGt, Value: v} }

// Gte matches documents where field >= v.
func Gte(field string, v any) Predicate { return &Cmp{Field: field, Op: OpGte, Value: v} }

// Lt matches documents where field < v.
func Lt(field string, v any) Predicate { return &Cmp{Field: field, Op: OpLt, Value: v} }

// Lte matches documents where field <= v.
func Lte(field string, v any) Predicate { return &Cmp{Field: field, Op: OpLte, Value: v} }

// In matches documents where field equals any of vs.
func In(field string, vs ...any) Predicate { return &Cmp{Field: field, Op: OpIn, Set: vs} }

// Exists matches documents that have the field at all.
func Exists(field string) Predicate { return &Cmp{Field: field, Op: OpExists} }

// Prefix matches string fields with the given prefix.
func Prefix(field, p string) Predicate { return &Cmp{Field: field, Op: OpPrefix, Value: p} }

// Contains matches string fields containing the given substring.
func Contains(field, sub string) Predicate { return &Cmp{Field: field, Op: OpContains, Value: sub} }

// Match implements Predicate.
func (c *Cmp) Match(doc Doc) bool {
	got, ok := doc.Lookup(c.Field)
	switch c.Op {
	case OpExists:
		return ok
	case OpEq:
		return ok && equal(got, c.Value)
	case OpNe:
		return !ok || !equal(got, c.Value)
	case OpIn:
		if !ok {
			return false
		}
		for _, v := range c.Set {
			if equal(got, v) {
				return true
			}
		}
		return false
	case OpGt, OpGte, OpLt, OpLte:
		if !ok {
			return false
		}
		cmp, comparable := compare(got, c.Value)
		if !comparable {
			return false
		}
		switch c.Op {
		case OpGt:
			return cmp > 0
		case OpGte:
			return cmp >= 0
		case OpLt:
			return cmp < 0
		default:
			return cmp <= 0
		}
	case OpPrefix:
		s, sok := got.(string)
		p, pok := c.Value.(string)
		return ok && sok && pok && strings.HasPrefix(s, p)
	case OpContains:
		s, sok := got.(string)
		p, pok := c.Value.(string)
		return ok && sok && pok && strings.Contains(s, p)
	}
	return false
}

// Canonical implements Predicate.
func (c *Cmp) Canonical() string {
	switch c.Op {
	case OpExists:
		return fmt.Sprintf("EXISTS(%s)", c.Field)
	case OpIn:
		vals := make([]string, len(c.Set))
		for i, v := range c.Set {
			vals[i] = formatValue(v)
		}
		sort.Strings(vals)
		return fmt.Sprintf("%s IN [%s]", c.Field, strings.Join(vals, ","))
	default:
		return fmt.Sprintf("%s %s %s", c.Field, c.Op, formatValue(c.Value))
	}
}

// Fields implements Predicate.
func (c *Cmp) Fields(dst map[string]struct{}) { dst[c.Field] = struct{}{} }

// And is the conjunction of its operands; empty And matches everything.
type And []Predicate

// Match implements Predicate.
func (a And) Match(doc Doc) bool {
	for _, p := range a {
		if !p.Match(doc) {
			return false
		}
	}
	return true
}

// Canonical implements Predicate.
func (a And) Canonical() string { return canonicalJunction("AND", a) }

// Fields implements Predicate.
func (a And) Fields(dst map[string]struct{}) {
	for _, p := range a {
		p.Fields(dst)
	}
}

// Or is the disjunction of its operands; empty Or matches nothing.
type Or []Predicate

// Match implements Predicate.
func (o Or) Match(doc Doc) bool {
	for _, p := range o {
		if p.Match(doc) {
			return true
		}
	}
	return false
}

// Canonical implements Predicate.
func (o Or) Canonical() string { return canonicalJunction("OR", o) }

// Fields implements Predicate.
func (o Or) Fields(dst map[string]struct{}) {
	for _, p := range o {
		p.Fields(dst)
	}
}

// Not negates its operand.
type Not struct{ P Predicate }

// Match implements Predicate.
func (n Not) Match(doc Doc) bool { return !n.P.Match(doc) }

// Canonical implements Predicate.
func (n Not) Canonical() string { return "NOT(" + n.P.Canonical() + ")" }

// Fields implements Predicate.
func (n Not) Fields(dst map[string]struct{}) { n.P.Fields(dst) }

// True matches every document. It is the predicate of an unfiltered scan.
type True struct{}

// Match implements Predicate.
func (True) Match(Doc) bool { return true }

// Canonical implements Predicate.
func (True) Canonical() string { return "TRUE" }

// Fields implements Predicate.
func (True) Fields(map[string]struct{}) {}

func canonicalJunction(op string, ps []Predicate) string {
	if len(ps) == 0 {
		if op == "AND" {
			return "TRUE"
		}
		return "FALSE"
	}
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = p.Canonical()
	}
	sort.Strings(parts)
	return op + "(" + strings.Join(parts, ";") + ")"
}

// equal compares two scalars with numeric coercion: all integer and float
// types compare by value, so a document's int 5 equals a query's float64 5.
func equal(a, b any) bool {
	if an, aok := ToFloat(a); aok {
		if bn, bok := ToFloat(b); bok {
			return an == bn
		}
		return false
	}
	switch av := a.(type) {
	case string:
		bv, ok := b.(string)
		return ok && av == bv
	case bool:
		bv, ok := b.(bool)
		return ok && av == bv
	case nil:
		return b == nil
	}
	return false
}

// compare orders two scalars; the bool result reports comparability.
func compare(a, b any) (int, bool) {
	if an, aok := ToFloat(a); aok {
		bn, bok := ToFloat(b)
		if !bok {
			return 0, false
		}
		switch {
		case an < bn:
			return -1, true
		case an > bn:
			return 1, true
		default:
			return 0, true
		}
	}
	as, aok := a.(string)
	bs, bok := b.(string)
	if aok && bok {
		return strings.Compare(as, bs), true
	}
	return 0, false
}

// ToFloat is the numeric coercion behind equal and compare: every integer
// and float type reads as a float64, anything else is not a number.
func ToFloat(v any) (float64, bool) {
	switch n := v.(type) {
	case int:
		return float64(n), true
	case int8:
		return float64(n), true
	case int16:
		return float64(n), true
	case int32:
		return float64(n), true
	case int64:
		return float64(n), true
	case uint:
		return float64(n), true
	case uint8:
		return float64(n), true
	case uint16:
		return float64(n), true
	case uint32:
		return float64(n), true
	case uint64:
		return float64(n), true
	case float32:
		return float64(n), true
	case float64:
		return n, true
	}
	return 0, false
}

func formatValue(v any) string {
	switch n := v.(type) {
	case string:
		return strconv.Quote(n)
	case nil:
		return "null"
	case bool:
		return strconv.FormatBool(n)
	default:
		if f, ok := ToFloat(v); ok {
			return strconv.FormatFloat(f, 'g', -1, 64)
		}
		return fmt.Sprintf("%v", v)
	}
}
