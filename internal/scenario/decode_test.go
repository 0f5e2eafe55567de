package scenario

import (
	"reflect"
	"strings"
	"testing"
)

// TestNewKnobIsOneTaggedField decodes a test-only section: each knob is
// declared once, as a tagged field, and the walker derives its key, its
// parsing, the unknown-key list and the type errors from that alone.
func TestNewKnobIsOneTaggedField(t *testing.T) {
	type entry struct {
		Name string `scn:"name"`
		Line int
	}
	type knobs struct {
		Rate    float64 `scn:"rate"`
		Count   int     `scn:"count"`
		Budget  uint64  `scn:"budget"`
		On      bool    `scn:"on"`
		Label   string  `scn:"label"`
		Limit   *int    `scn:"limit"`
		Entries []entry `scn:"entries,as=entry"`
		Nested  struct {
			Depth int `scn:"depth"`
		} `scn:"nested"`
		Unset *float64 `scn:"unset"`
	}
	decode := func(src string) (knobs, string) {
		t.Helper()
		root, err := parseDocument("k.yaml", []byte(src))
		if err != nil {
			t.Fatal(err)
		}
		var k knobs
		d := &decoder{name: "k.yaml", failed: map[*node]bool{}}
		d.decodeStruct(root, reflect.ValueOf(&k).Elem(), "knobs", "knobs")
		msg := ""
		if err := d.err(); err != nil {
			msg = err.Error()
		}
		return k, msg
	}

	k, msg := decode("rate: 2.5e-3\ncount: -4\nbudget: 0x10\non: true\nlabel: \"a b\"\nlimit: 7\n" +
		"entries:\n  - name: x\n  - name: y\nnested: {depth: 3}\n")
	if msg != "" {
		t.Fatal(msg)
	}
	if k.Rate != 2.5e-3 || k.Count != -4 || k.Budget != 16 || !k.On || k.Label != "a b" ||
		k.Limit == nil || *k.Limit != 7 || k.Nested.Depth != 3 || k.Unset != nil {
		t.Errorf("decoded %+v", k)
	}
	if want := []entry{{"x", 8}, {"y", 9}}; !reflect.DeepEqual(k.Entries, want) {
		t.Errorf("entries %+v, want %+v", k.Entries, want)
	}

	_, msg = decode("rate: fast\ncount: 1.5\nbudget: -1\non: yes\nlimit: [1]\nentries:\n  - name: [x]\nnested: 3\nspeed: 9\n")
	want := []string{
		`k.yaml:1: knobs.rate: "fast" is not a number`,
		`k.yaml:2: knobs.count: "1.5" is not an integer`,
		`k.yaml:3: knobs.budget: "-1" is not an unsigned integer`,
		`k.yaml:4: knobs.on: "yes" is not a boolean (true/false)`,
		`k.yaml:5: knobs.limit must be a scalar`,
		`k.yaml:7: entry.name must be a scalar`,
		`k.yaml:8: knobs.nested must be a mapping`,
		`k.yaml:9: unknown key "speed" in knobs (known: rate, count, budget, on, label, limit, entries, nested, unset)`,
	}
	if got := strings.Split(msg, "\n"); !reflect.DeepEqual(got, want) {
		t.Errorf("errors:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}
