package prefetch

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Spec is the declarative, serializable form of an engine configuration:
// a registry name plus explicit parameter values. A Spec is plain data —
// it travels through sweep grids, job files, and the remote wire — and is
// resolved into a live engine instance only at the point of execution,
// against the schema the engine registered. Zero params means "the
// engine's defaults".
//
// Params use float64 as the universal scalar so the whole spec
// round-trips through JSON without a type registry; each engine's schema
// declares per-parameter kinds (int, bool, float) and validation rejects
// values that do not fit the declared kind. JSON encoding is canonical:
// Go serializes map keys in sorted order.
type Spec struct {
	// Name is the engine's registry name ("pif", "tifs", ...).
	Name string `json:"name"`
	// Params holds explicitly-set parameter values keyed by schema
	// parameter name. Unset parameters take their schema defaults.
	Params map[string]float64 `json:"params,omitempty"`
}

// With returns a copy of the spec with one parameter set. The receiver's
// param map is never mutated, so specs derived from a shared base (sweep
// cells expanded from one BaseEngine) cannot contaminate each other.
func (s Spec) With(param string, v float64) Spec {
	out := Spec{Name: s.Name, Params: make(map[string]float64, len(s.Params)+1)}
	for k, pv := range s.Params {
		out.Params[k] = pv
	}
	out.Params[param] = v
	return out
}

// String renders the spec in the CLI's -engine syntax: "name" or
// "name:k=v,...". Params print in sorted order, so equal specs render
// identically (the form error messages and job records quote).
func (s Spec) String() string {
	if len(s.Params) == 0 {
		return s.Name
	}
	keys := make([]string, 0, len(s.Params))
	for k := range s.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"="+formatParamValue(s.Params[k]))
	}
	return s.Name + ":" + strings.Join(parts, ",")
}

// formatParamValue renders a param scalar in the shortest exact form.
func formatParamValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Kind is the declared type of a schema parameter.
type Kind string

const (
	// KindInt accepts integral values only.
	KindInt Kind = "int"
	// KindBool accepts 0 or 1 (the CLI also parses true/false).
	KindBool Kind = "bool"
	// KindFloat accepts any finite value.
	KindFloat Kind = "float"
)

// Param declares one typed parameter of an engine schema.
type Param struct {
	// Name is the parameter's key in Spec.Params.
	Name string
	// Kind is the value's declared type; the zero value means KindInt.
	Kind Kind
	// Default is the effective value when the spec does not set the
	// parameter. Defaults are trusted: they bypass Min/Max (a parameter
	// may default to 0 meaning "unset" while requiring explicit values
	// to be >= 1).
	Default float64
	// Min is the smallest accepted explicit value.
	Min float64
	// Max is the largest accepted explicit value; 0 means unbounded
	// above.
	Max float64
	// Help is a one-line description for -list-engines.
	Help string
}

// Params is the effective parameter set handed to an engine constructor:
// every schema parameter present, defaults applied and derivations
// resolved.
type Params map[string]float64

// Schema declares a registered engine: its name, typed parameters, and
// how a validated parameter set becomes a live instance.
type Schema struct {
	// Name is the registry name.
	Name string
	// Doc is a one-line description for -list-engines.
	Doc string
	// Params declares the accepted parameters in display order.
	Params []Param
	// Ignores lists parameter names the engine accepts and drops without
	// error. Mixed-engine sweep axes (budget_kb across pif/tifs/none)
	// rely on this: an engine with no history storage ignores the budget
	// knob instead of failing the whole grid.
	Ignores []string
	// Derive, when non-nil, runs after per-parameter validation with the
	// effective parameter set and the set of explicitly-provided names.
	// It applies cross-parameter derivations in place (budget_kb ->
	// history) and rejects invalid combinations.
	Derive func(p Params, set map[string]bool) error
	// New constructs a fresh engine from a fully resolved parameter set.
	// Engines are stateful; New must never return a shared instance.
	New func(p Params) Prefetcher
}

// param looks up a declared parameter by name.
func (s Schema) param(name string) (Param, bool) {
	for _, p := range s.Params {
		if p.Name == name {
			return p, true
		}
	}
	return Param{}, false
}

// ignores reports whether the schema accepts-and-drops the given name.
func (s Schema) ignores(name string) bool {
	for _, n := range s.Ignores {
		if n == name {
			return true
		}
	}
	return false
}

// paramNames returns the declared parameter names in display order.
func (s Schema) paramNames() []string {
	names := make([]string, 0, len(s.Params))
	for _, p := range s.Params {
		names = append(names, p.Name)
	}
	return names
}

// Describe renders the schema for -list-engines: one header line and one
// indented line per parameter.
func (s Schema) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", s.Name, s.Doc)
	for _, p := range s.Params {
		kind := p.Kind
		if kind == "" {
			kind = KindInt
		}
		rng := ""
		switch {
		case p.Max > 0:
			rng = fmt.Sprintf("  [%s..%s]", formatParamValue(p.Min), formatParamValue(p.Max))
		case p.Min != 0:
			rng = fmt.Sprintf("  [>= %s]", formatParamValue(p.Min))
		}
		fmt.Fprintf(&b, "    %-12s %-5s default %-8s%s  %s\n",
			p.Name, kind, formatParamValue(p.Default), rng, p.Help)
	}
	if len(s.Ignores) > 0 {
		fmt.Fprintf(&b, "    (accepts and ignores: %s)\n", strings.Join(s.Ignores, ", "))
	}
	return b.String()
}

// The registry maps engine names to schemas. The baselines in this
// package register themselves from registry.go's init; the PIF variants
// register from internal/core's init (core depends on this package, not
// vice versa).
var (
	regMu   sync.RWMutex
	schemas = map[string]Schema{}
)

// Register adds an engine schema. It panics on an empty name, a nil
// constructor, or a duplicate registration — registry population is
// init-time programmer input.
func Register(s Schema) {
	if s.Name == "" || s.New == nil {
		panic(fmt.Sprintf("prefetch: Register(%q) with empty name or nil constructor", s.Name))
	}
	seen := map[string]bool{}
	for _, p := range s.Params {
		if p.Name == "" || seen[p.Name] {
			panic(fmt.Sprintf("prefetch: Register(%q): empty or duplicate param %q", s.Name, p.Name))
		}
		seen[p.Name] = true
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := schemas[s.Name]; dup {
		panic(fmt.Sprintf("prefetch: duplicate registration of %q", s.Name))
	}
	schemas[s.Name] = s
}

// LookupSchema returns the schema registered under name.
func LookupSchema(name string) (Schema, error) {
	regMu.RLock()
	s, ok := schemas[name]
	regMu.RUnlock()
	if !ok {
		return Schema{}, fmt.Errorf("prefetch: unknown engine %q (have %s)", name, strings.Join(Names(), ", "))
	}
	return s, nil
}

// Schemas returns the registered schemas sorted by name.
func Schemas() []Schema {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Schema, 0, len(schemas))
	for _, s := range schemas {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the registered engine names in sorted order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(schemas))
	for n := range schemas {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// effectiveParams validates spec against its engine's schema and returns
// the resolved parameter set: defaults overlaid with the spec's explicit
// values (ignored names dropped), then the schema's Derive applied.
func effectiveParams(spec Spec) (Params, error) {
	sch, err := LookupSchema(spec.Name)
	if err != nil {
		return nil, err
	}
	eff := make(Params, len(sch.Params))
	for _, p := range sch.Params {
		eff[p.Name] = p.Default
	}
	set := make(map[string]bool, len(spec.Params))
	// Validate in sorted order so the first error is deterministic.
	keys := make([]string, 0, len(spec.Params))
	for k := range spec.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := spec.Params[k]
		if sch.ignores(k) {
			if _, declared := sch.param(k); !declared {
				continue
			}
		}
		p, ok := sch.param(k)
		if !ok {
			if len(sch.Params) == 0 {
				return nil, fmt.Errorf("prefetch: engine %q: unknown param %q (engine takes no params)", spec.Name, k)
			}
			return nil, fmt.Errorf("prefetch: engine %q: unknown param %q (have %s)",
				spec.Name, k, strings.Join(sch.paramNames(), ", "))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("prefetch: engine %q: param %q: value %s is not finite",
				spec.Name, k, formatParamValue(v))
		}
		kind := p.Kind
		if kind == "" {
			kind = KindInt
		}
		switch kind {
		case KindInt:
			if v != math.Trunc(v) {
				return nil, fmt.Errorf("prefetch: engine %q: param %q: value %s is not an integer",
					spec.Name, k, formatParamValue(v))
			}
		case KindBool:
			if v != 0 && v != 1 {
				return nil, fmt.Errorf("prefetch: engine %q: param %q: value %s is not a bool (use 1 or 0)",
					spec.Name, k, formatParamValue(v))
			}
		}
		if v < p.Min {
			return nil, fmt.Errorf("prefetch: engine %q: param %q: value %s below minimum %s",
				spec.Name, k, formatParamValue(v), formatParamValue(p.Min))
		}
		if p.Max > 0 && v > p.Max {
			return nil, fmt.Errorf("prefetch: engine %q: param %q: value %s above maximum %s",
				spec.Name, k, formatParamValue(v), formatParamValue(p.Max))
		}
		eff[k] = v
		set[k] = true
	}
	if sch.Derive != nil {
		if err := sch.Derive(eff, set); err != nil {
			return nil, fmt.Errorf("prefetch: engine %q: %w", spec.Name, err)
		}
	}
	return eff, nil
}

// Validate checks a spec against its engine's schema: known engine,
// known parameter names, declared kinds, declared ranges, and the
// engine's cross-parameter rules.
func Validate(spec Spec) error {
	_, err := effectiveParams(spec)
	return err
}

// Resolve validates a spec and constructs a fresh engine instance from
// it. Engines are stateful, so every simulation job resolves its own.
func Resolve(spec Spec) (Prefetcher, error) {
	eff, err := effectiveParams(spec)
	if err != nil {
		return nil, err
	}
	sch, err := LookupSchema(spec.Name)
	if err != nil {
		return nil, err
	}
	return sch.New(eff), nil
}

// Resolved returns the spec with every schema parameter at its effective
// value: defaults applied and derivations resolved. This is the
// like-for-like form job records store, so a budget-swept cell and a
// hand-tuned cell with the same effective history compare equal.
func Resolved(spec Spec) (Spec, error) {
	eff, err := effectiveParams(spec)
	if err != nil {
		return Spec{}, err
	}
	out := Spec{Name: spec.Name}
	if len(eff) > 0 {
		out.Params = map[string]float64(eff)
	}
	return out, nil
}

// ParseSpec parses the CLI's -engine syntax, "name" or "name:k=v,...",
// into a validated Spec. Values parse schema-aware: int params accept K
// and M binary suffixes ("64K" = 65536), bool params accept true/false
// as well as 1/0.
func ParseSpec(s string) (Spec, error) {
	name, rest, hasParams := strings.Cut(s, ":")
	name = strings.TrimSpace(name)
	sch, err := LookupSchema(name)
	if err != nil {
		return Spec{}, err
	}
	spec := Spec{Name: name}
	if !hasParams {
		return spec, nil
	}
	if strings.TrimSpace(rest) == "" {
		return Spec{}, fmt.Errorf("prefetch: engine spec %q: empty parameter list after %q", s, name+":")
	}
	for _, kv := range strings.Split(rest, ",") {
		k, v, ok := strings.Cut(kv, "=")
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		if !ok || k == "" || v == "" {
			return Spec{}, fmt.Errorf("prefetch: engine spec %q: param %q is not of the form k=v", s, kv)
		}
		if _, dup := spec.Params[k]; dup {
			return Spec{}, fmt.Errorf("prefetch: engine spec %q: param %q set twice", s, k)
		}
		p, declared := sch.param(k)
		if !declared && !sch.ignores(k) {
			if len(sch.Params) == 0 {
				return Spec{}, fmt.Errorf("prefetch: engine %q: unknown param %q (engine takes no params)", name, k)
			}
			return Spec{}, fmt.Errorf("prefetch: engine %q: unknown param %q (have %s)",
				name, k, strings.Join(sch.paramNames(), ", "))
		}
		kind := p.Kind
		if !declared || kind == "" {
			kind = KindInt
		}
		f, perr := parseParamValue(v, kind)
		if perr != nil {
			return Spec{}, fmt.Errorf("prefetch: engine spec %q: param %q: %v", s, k, perr)
		}
		if spec.Params == nil {
			spec.Params = make(map[string]float64)
		}
		spec.Params[k] = f
	}
	if err := Validate(spec); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// parseParamValue parses one CLI parameter value for the given kind.
func parseParamValue(v string, kind Kind) (float64, error) {
	switch kind {
	case KindBool:
		switch v {
		case "true", "1":
			return 1, nil
		case "false", "0":
			return 0, nil
		}
		return 0, fmt.Errorf("bad bool %q (use true/false or 1/0)", v)
	case KindFloat:
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, fmt.Errorf("bad value %q", v)
		}
		return f, nil
	default: // KindInt
		mult := 1.0
		switch {
		case strings.HasSuffix(v, "K"), strings.HasSuffix(v, "k"):
			mult, v = 1024, v[:len(v)-1]
		case strings.HasSuffix(v, "M"), strings.HasSuffix(v, "m"):
			mult, v = 1024*1024, v[:len(v)-1]
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, fmt.Errorf("bad value %q", v)
		}
		return f * mult, nil
	}
}
