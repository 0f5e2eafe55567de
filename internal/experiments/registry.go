package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Result is one experiment's outcome; Table renders the rows the paper
// reports.
type Result interface{ Table() string }

// Runner runs one experiment at the given scale.
type Runner func(Scale) Result

// Registry maps experiment ids to runners. F1 is the paper's Figure 1;
// E1..E14 are the per-claim experiments from DESIGN.md §4.
var Registry = map[string]Runner{
	"F1":  func(s Scale) Result { return F1(s) },
	"E1":  func(s Scale) Result { return E1(s) },
	"E2":  func(s Scale) Result { return E2(s) },
	"E3":  func(s Scale) Result { return E3(s) },
	"E4":  func(s Scale) Result { return E4(s) },
	"E5":  func(s Scale) Result { return E5(s) },
	"E6":  func(s Scale) Result { return E6(s) },
	"E7":  func(s Scale) Result { return E7(s) },
	"E8":  func(s Scale) Result { return E8(s) },
	"E9":  func(s Scale) Result { return E9(s) },
	"E10": func(s Scale) Result { return E10(s) },
	"E11": func(s Scale) Result { return E11(s) },
	"E12": func(s Scale) Result { return E12(s) },
	"E13": func(s Scale) Result { return E13(s) },
	"E14": func(s Scale) Result { return E14(s) },
}

// IDs returns the experiment ids in presentation order.
func IDs() []string {
	ids := make([]string, 0, len(Registry))
	for id := range Registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		// F1 first, then E1..E14 numerically.
		a, b := ids[i], ids[j]
		if (a[0] == 'F') != (b[0] == 'F') {
			return a[0] == 'F'
		}
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
	return ids
}

// Write runs the experiments ids at scale s and prints each table under a
// rule of '=', the layout of experiments_output.txt. An unknown id is an
// error reported before anything runs.
func Write(w io.Writer, ids []string, s Scale) error {
	for _, id := range ids {
		if _, ok := Registry[id]; !ok {
			return fmt.Errorf("unknown experiment %q (have %v)", id, IDs())
		}
	}
	return writeTables(w, ids, func(id string) Result { return Registry[id](s) })
}

// writeTables prints result(id) for each id in order; the golden test
// passes memoised results through it.
func writeTables(w io.Writer, ids []string, result func(id string) Result) error {
	for _, id := range ids {
		if _, err := fmt.Fprintf(w, "%s\n%s\n", strings.Repeat("=", 72), result(id).Table()); err != nil {
			return err
		}
	}
	return nil
}
