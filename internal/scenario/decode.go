package scenario

// Decoding: one reflective walker maps the parse tree onto tagged Go
// values. A knob is one struct field tagged `scn:"key"` — the walker
// derives the section's key list, the unknown-key check, scalar parsing
// and the line-numbered type errors from it. Checks that span fields are
// per-type validate methods; a section whose shape is not a fixed key set
// (events, assert) decodes itself.

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// decoder collects every schema violation with its source line.
type decoder struct {
	name string
	errs []schemaErr
	// s is the scenario being decoded: event checks read its days and
	// fleet shape, which are decoded first.
	s *Scenario
	// failed marks value nodes that did not decode, so a field whose key
	// is present but malformed counts as not given.
	failed map[*node]bool
}

type schemaErr struct {
	line int
	msg  string
}

func (d *decoder) errf(line int, format string, args ...interface{}) {
	d.errs = append(d.errs, schemaErr{line, fmt.Sprintf("%s:%d: %s", d.name, line, fmt.Sprintf(format, args...))})
}

// err joins the collected errors, stably sorted by line (nil when clean).
func (d *decoder) err() error {
	if len(d.errs) == 0 {
		return nil
	}
	sort.SliceStable(d.errs, func(i, j int) bool { return d.errs[i].line < d.errs[j].line })
	msgs := make([]string, len(d.errs))
	for i, e := range d.errs {
		msgs[i] = e.msg
	}
	return fmt.Errorf("%s", strings.Join(msgs, "\n"))
}

// asMap coerces a node into a mapping; null is accepted as an empty
// mapping (e.g. "stop_kv_load:" with no parameters).
func (d *decoder) asMap(n *node, what string) *node {
	if n == nil || n.kind == nNull {
		return newMapNode(lineOf(n))
	}
	if n.kind != nMap {
		d.errf(n.line, "%s must be a mapping", what)
		return nil
	}
	return n
}

func lineOf(n *node) int {
	if n == nil {
		return 0
	}
	return n.line
}

// known flags every key outside allowed as an error.
func (d *decoder) known(m *node, what string, allowed ...string) {
	for _, k := range m.keys {
		if !slices.Contains(allowed, k) {
			d.errf(m.keyLine(k), "unknown key %q in %s (known: %s)", k, what, strings.Join(allowed, ", "))
		}
	}
}

// given reports whether key is present in m and decoded cleanly.
func (d *decoder) given(m *node, key string) bool {
	c := m.child(key)
	return c != nil && !d.failed[c]
}

// positive reports key unless v, its decoded value, is > 0.
func (d *decoder) positive(m *node, what, key string, v int) {
	if v <= 0 {
		d.errf(m.keyLine(key), "%s.%s must be a positive integer", what, key)
	}
}

// nonNegative reports key unless v, its decoded value, is >= 0.
func (d *decoder) nonNegative(m *node, what, key string, v float64) {
	if !(v >= 0) {
		d.errf(m.keyLine(key), "%s.%s must be >= 0", what, key)
	}
}

// validator is a type with checks that span its fields; it runs after
// the type's mapping m decoded.
type validator interface {
	validate(d *decoder, m *node, path string)
}

// defaulter is a type whose knobs default to non-zero values; it runs
// when the walker allocates one, before decoding onto it.
type defaulter interface{ setDefaults() }

// selfDecoder is a section whose keys are not a fixed set of tags.
type selfDecoder interface {
	decodeScn(d *decoder, n *node, path, name string) bool
}

var selfDecoderType = reflect.TypeOf((*selfDecoder)(nil)).Elem()

// decodeInto decodes n onto v and reports whether n had v's shape.
//
// path names v in shape and unknown-key errors ("fleet.policy must be a
// mapping"); name prefixes the errors of its scalar fields ("policy.mode:
// ..."). A scalar's own errors read "path: ...". Pointers are allocated
// (and defaulted) only when n decodes; sequence items decode onto new
// elements under "path entry".
func (d *decoder) decodeInto(n *node, v reflect.Value, path, name string) bool {
	if sd, ok := v.Addr().Interface().(selfDecoder); ok {
		return sd.decodeScn(d, n, path, name)
	}
	switch v.Kind() {
	case reflect.Ptr:
		p := v
		if v.IsNil() {
			p = reflect.New(v.Type().Elem())
			if df, ok := p.Interface().(defaulter); ok {
				df.setDefaults()
			}
		}
		if !d.decodeInto(n, p.Elem(), path, name) {
			return false
		}
		v.Set(p)
		return true
	case reflect.Struct:
		return d.decodeStruct(n, v, path, name)
	case reflect.Slice:
		if n.kind != nSeq {
			d.errf(n.line, "%s must be a sequence", path)
			return false
		}
		for _, item := range n.items {
			e := reflect.New(v.Type().Elem()).Elem()
			if d.decodeInto(item, e, path+" entry", name) {
				v.Set(reflect.Append(v, e))
			}
		}
		return true
	}
	return d.scalar(n, v, path)
}

// decodeStruct decodes a mapping onto v's tagged fields, sets its Line
// fields to the mapping's line and runs its validate method. An empty
// path is the document itself, whose sections are named by their key
// alone and whose own errors call it by name.
func (d *decoder) decodeStruct(n *node, v reflect.Value, path, name string) bool {
	what := path
	if what == "" {
		what = name
	}
	m := d.asMap(n, what)
	if m == nil {
		return false
	}
	fields := scnFields(v, nil)
	keys := make([]string, 0, len(fields))
	for _, f := range fields {
		if f.key != "" {
			keys = append(keys, f.key)
		}
	}
	d.known(m, what, keys...)
	for _, f := range fields {
		if f.key == "" {
			f.v.SetInt(int64(m.line))
			continue
		}
		c := m.child(f.key)
		if c == nil {
			continue
		}
		fpath, fname := joinPath(path, f.key), f.as
		if isScalar(f.v.Type()) {
			fpath = name + "." + f.key
		}
		if fname == "" {
			fname = fpath
		}
		if !d.decodeInto(c, f.v, fpath, fname) {
			d.failed[c] = true
		}
	}
	if vd, ok := v.Addr().Interface().(validator); ok {
		vd.validate(d, m, what)
	}
	return true
}

func joinPath(path, key string) string {
	if path == "" {
		return key
	}
	return path + "." + key
}

// field is one decodable struct field: a tagged knob, or (key "") an
// untagged Line field that records the mapping's line.
type field struct {
	key, as string
	v       reflect.Value
}

// scnFields lists v's fields tagged `scn:"key"` or `scn:"key,as=name"`
// (as renames the prefix of a section's scalar errors), in declaration
// order, descending into untagged embedded structs.
func scnFields(v reflect.Value, out []field) []field {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		tag, tagged := sf.Tag.Lookup("scn")
		switch {
		case !sf.IsExported():
		case tagged:
			key, as, _ := strings.Cut(tag, ",as=")
			out = append(out, field{key: key, as: as, v: v.Field(i)})
		case sf.Anonymous && sf.Type.Kind() == reflect.Struct:
			out = scnFields(v.Field(i), out)
		case sf.Name == "Line" && sf.Type.Kind() == reflect.Int:
			out = append(out, field{v: v.Field(i)})
		}
	}
	return out
}

// isScalar reports whether t (through pointers) decodes from one scalar.
func isScalar(t reflect.Type) bool {
	for t.Kind() == reflect.Ptr {
		t = t.Elem()
	}
	if reflect.PointerTo(t).Implements(selfDecoderType) {
		return false
	}
	switch t.Kind() {
	case reflect.Struct, reflect.Slice, reflect.Map:
		return false
	}
	return true
}

// scalar parses a scalar node onto a string, bool, integer or float.
func (d *decoder) scalar(n *node, v reflect.Value, path string) bool {
	if n.kind != nScalar {
		d.errf(n.line, "%s must be a scalar", path)
		return false
	}
	switch v.Kind() {
	case reflect.String:
		v.SetString(n.text)
		return true
	case reflect.Bool:
		if n.text == "true" || n.text == "false" {
			v.SetBool(n.text == "true")
			return true
		}
		d.errf(n.line, "%s: %q is not a boolean (true/false)", path, n.text)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		i, err := strconv.ParseInt(n.text, 0, v.Type().Bits())
		if err == nil {
			v.SetInt(i)
			return true
		}
		d.errf(n.line, "%s: %q is not an integer", path, n.text)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		u, err := strconv.ParseUint(n.text, 0, v.Type().Bits())
		if err == nil {
			v.SetUint(u)
			return true
		}
		d.errf(n.line, "%s: %q is not an unsigned integer", path, n.text)
	case reflect.Float32, reflect.Float64:
		f, err := strconv.ParseFloat(n.text, v.Type().Bits())
		if err == nil {
			v.SetFloat(f)
			return true
		}
		d.errf(n.line, "%s: %q is not a number", path, n.text)
	default:
		panic(fmt.Sprintf("scenario: %s: no decoder for %s", path, v.Type()))
	}
	return false
}
