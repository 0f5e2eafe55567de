package scenario

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *node {
	t.Helper()
	n, err := parseDocument("test.yaml", []byte(src))
	if err != nil {
		t.Fatalf("parseDocument: %v", err)
	}
	return n
}

func TestParseBlockMapping(t *testing.T) {
	root := mustParse(t, `
# comment
name: demo
days: 45
fleet:
  machines: 200
  cores_per_machine: 8
`)
	if root.kind != nMap {
		t.Fatalf("root kind = %v, want map", root.kind)
	}
	if got := root.child("name").text; got != "demo" {
		t.Errorf("name = %q", got)
	}
	fl := root.child("fleet")
	if fl.kind != nMap {
		t.Fatalf("fleet kind = %v, want map", fl.kind)
	}
	if got := fl.child("machines").text; got != "200" {
		t.Errorf("machines = %q", got)
	}
	// Line numbers are 1-based positions in the source.
	if got := root.keyLine("days"); got != 4 {
		t.Errorf("days keyLine = %d, want 4", got)
	}
	if got := fl.child("cores_per_machine").line; got != 7 {
		t.Errorf("cores_per_machine line = %d, want 7", got)
	}
}

func TestParseSequences(t *testing.T) {
	root := mustParse(t, `
events:
  - day: 3
    drain_machine:
      machine: m00001
  - day: 9
    undrain_machine:
      machine: m00001
tags:
  - a
  - b
`)
	evs := root.child("events")
	if evs.kind != nSeq || len(evs.items) != 2 {
		t.Fatalf("events: kind=%v items=%d", evs.kind, len(evs.items))
	}
	if got := evs.items[1].child("day").text; got != "9" {
		t.Errorf("second event day = %q", got)
	}
	tags := root.child("tags")
	if len(tags.items) != 2 || tags.items[0].text != "a" {
		t.Errorf("tags = %+v", tags.items)
	}
}

func TestParseFlowAndQuotes(t *testing.T) {
	root := mustParse(t, `
point: {freq_ghz: 2.5, temp_c: 90}
cores: [1, 2, 3]
label: "say \"hi\" #not-a-comment"
single: 'it''s'
empty:
`)
	pt := root.child("point")
	if pt.kind != nMap || pt.child("temp_c").text != "90" {
		t.Errorf("flow map: %+v", pt)
	}
	cores := root.child("cores")
	if cores.kind != nSeq || len(cores.items) != 3 || cores.items[2].text != "3" {
		t.Errorf("flow seq: %+v", cores)
	}
	if got := root.child("label").text; got != `say "hi" #not-a-comment` {
		t.Errorf("label = %q", got)
	}
	if got := root.child("single").text; got != "it's" {
		t.Errorf("single = %q", got)
	}
	if root.child("empty").kind != nNull {
		t.Errorf("empty should be null")
	}
}

func TestParseErrorsCarryLines(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"tab indent", "a: 1\n\tb: 2\n", "test.yaml:2"},
		{"duplicate key", "a: 1\nb: 2\na: 3\n", "test.yaml:3"},
		{"unclosed flow", "a: {b: 1\n", "test.yaml:1"},
		{"flow key without colon", "a: 1\nb: {c 1}\n", "test.yaml:2: expected ':' after key \"c 1\""},
		{"block scalar unsupported", "a: |\n  text\n", "test.yaml:1"},
		{"anchor unsupported", "a: &x 1\n", "test.yaml:1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseDocument("test.yaml", []byte(tc.src))
			if err == nil {
				t.Fatalf("no error for %q", tc.src)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}
