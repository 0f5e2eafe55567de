// Command ceectl is the operator CLI for ceereportd's machine-lifecycle
// control plane:
//
//	ceectl -addr http://localhost:8080 list              # full ledger
//	ceectl list -state cordoned -pool web                # filter the ledger
//	ceectl show m00042                                   # one machine
//	ceectl cordon m00042 -reason "convicted, score 9.1"  # operator verbs
//	ceectl drain m00042
//	ceectl repair m00042
//	ceectl release m00042 -reason "repair verified"
//	ceectl remove m00042 -reason "recidivist"
//	ceectl assign m00042 -pool web                       # pool membership
//	ceectl pools                                         # capacity + deferred drains
//	ceectl stats                                         # service stats
//	ceectl readyz                                        # readiness probe
//	ceectl flood -n 200 -machines 50 -batch 64           # batched load
//
// A drain or cordon that would push the machine's pool below its
// capacity floor comes back deferred (HTTP 202): the intent is durably
// queued and admits itself as repaired capacity returns; ceectl prints
// the record with deferred=true and exits 0.
//
// Exit status: 0 on success, 1 when the server rejects the request (for
// a verb, typically an illegal lifecycle transition → HTTP 409), 2 on
// usage errors.
//
// flood exists for smoke tests: it ships n batches of synthetic crash
// reports through POST /v1/reports, riding the client's retry/Retry-After
// handling when the server sheds, and prints the delivery accounting:
// shed counts batches the server refused through every retry (429/503),
// unreachable those that last failed in transport.
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/report"
)

func usage(w io.Writer) {
	fmt.Fprint(w, `usage: ceectl [-addr URL] <command> [flags] [machine]

Commands:
  list [-state S] [-pool P]
                           list machine lifecycle records (table)
  show <machine>           show one machine's record
  cordon <machine>         stop scheduling new work on the machine
  drain <machine>          cordon + migrate work away (completes immediately)
  repair <machine>         send a drained machine to repairs
  release <machine>        return a machine to service (repaired → probation,
                           drained/probation/suspect → healthy)
  remove <machine>         permanently decommission the machine
  assign <machine> -pool P assign the machine to a capacity pool
  pools                    per-pool capacity, floors, and deferred drains
  stats                    report-service statistics
  readyz                   readiness probe (exit 0 ready, 1 degraded)
  flood [-n N] [-machines M] [-batch B] [-source S]
                           ship N synthetic report batches (smoke/load tool)
  help                     show this message

The -addr flag (default http://localhost:8080, or $CEEREPORTD_ADDR)
must precede the command. Verb flags: -reason, -actor, -day, -score;
drain/cordon answers may be deferred (pool at its capacity floor).
`)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// cli carries one invocation's client and output streams.
type cli struct {
	c              *report.Client
	stdout, stderr io.Writer
}

// run executes one ceectl invocation and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	global := flag.NewFlagSet("ceectl", flag.ContinueOnError)
	addr := global.String("addr", cmp.Or(os.Getenv("CEEREPORTD_ADDR"), "http://localhost:8080"), "ceereportd base URL")
	global.Usage = func() { usage(stderr) }
	if status, ok := parse(global, args, stderr); !ok {
		return status
	}
	args = global.Args()
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	x := &cli{c: &report.Client{BaseURL: *addr}, stdout: stdout, stderr: stderr}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	cmd := args[0]
	switch cmd {
	case "list":
		return x.list(ctx, args[1:])
	case "show":
		return x.show(ctx, args[1:])
	case "cordon", "drain", "repair", "release", "remove", "assign":
		return x.verb(ctx, cmd, args[1:])
	case "pools":
		return x.pools(ctx)
	case "stats":
		return x.stats(ctx)
	case "readyz":
		return x.readyz(ctx)
	case "flood":
		return x.flood(ctx, args[1:])
	case "help", "-h", "--help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "ceectl: unknown command %q\n\n", cmd)
		usage(stderr)
		return 2
	}
}

// parse parses args into fs, reporting to stderr. When ok is false the
// command exits with status: 0 after -h (as flag.ExitOnError would),
// 2 on a bad flag.
func parse(fs *flag.FlagSet, args []string, stderr io.Writer) (status int, ok bool) {
	fs.SetOutput(stderr)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0, false
	} else if err != nil {
		return 2, false
	}
	return 0, true
}

func (x *cli) fail(err error) int {
	fmt.Fprintf(x.stderr, "ceectl: %v\n", err)
	return 1
}

func (x *cli) list(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("list", flag.ContinueOnError)
	state := fs.String("state", "", "filter by lifecycle state")
	pool := fs.String("pool", "", "filter by pool membership")
	if status, ok := parse(fs, args, x.stderr); !ok {
		return status
	}
	machines, err := x.c.Machines(ctx, *state, *pool)
	if err != nil {
		return x.fail(err)
	}
	renderMachineTable(x.stdout, machines)
	fmt.Fprintf(x.stderr, "%d machine(s)\n", len(machines))
	return 0
}

func (x *cli) pools(ctx context.Context) int {
	p, err := x.c.Pools(ctx)
	if err != nil {
		return x.fail(err)
	}
	renderPools(x.stdout, p)
	return 0
}

func (x *cli) readyz(ctx context.Context) int {
	out, ready, err := x.c.Readyz(ctx)
	if err != nil {
		return x.fail(err)
	}
	fmt.Fprintf(x.stdout, "status=%s wal_enabled=%t wal_healthy=%t queue_depth=%d/%d\n",
		out.Status, out.WAL.Enabled, out.WAL.Healthy, out.Queue.Depth, out.Queue.Capacity)
	if out.WAL.Error != "" {
		fmt.Fprintf(x.stdout, "wal_error=%q\n", out.WAL.Error)
	}
	if !ready {
		return 1
	}
	return 0
}

func (x *cli) show(ctx context.Context, args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(x.stderr, "usage: ceectl show <machine>")
		return 2
	}
	m, err := x.c.Machine(ctx, args[0])
	if err != nil {
		return x.fail(err)
	}
	renderRecord(x.stdout, m)
	return 0
}

func (x *cli) verb(ctx context.Context, verb string, args []string) int {
	fs := flag.NewFlagSet(verb, flag.ContinueOnError)
	reason := fs.String("reason", "", "reason recorded in the lifecycle ledger")
	actor := fs.String("actor", "ceectl", "actor recorded in the lifecycle ledger")
	day := fs.Int("day", 0, "ledger day stamp")
	score := fs.Float64("score", 0, "conviction score (orders deferred drains)")
	pool := fs.String("pool", "", "pool name (assign verb)")
	// Accept the machine before the flags ("ceectl cordon m1 -reason x")
	// — the natural word order — as well as after them.
	var machine string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		machine, args = args[0], args[1:]
	}
	if status, ok := parse(fs, args, x.stderr); !ok {
		return status
	}
	if machine == "" && fs.NArg() == 1 {
		machine = fs.Arg(0)
	} else if fs.NArg() != 0 || machine == "" {
		fmt.Fprintf(x.stderr, "usage: ceectl %s <machine> [-reason R] [-actor A] [-day D]\n", verb)
		return 2
	}
	if verb == "assign" && *pool == "" {
		fmt.Fprintln(x.stderr, "usage: ceectl assign <machine> -pool <name>")
		return 2
	}
	m, err := x.c.MachineAction(ctx, machine, verb, report.ActionRequest{
		Reason: *reason, Actor: *actor, Day: *day, Score: *score, Pool: *pool,
	})
	if err != nil {
		return x.fail(err)
	}
	renderRecord(x.stdout, m)
	return 0
}

func (x *cli) stats(ctx context.Context) int {
	s, err := x.c.Stats(ctx)
	if err != nil {
		return x.fail(err)
	}
	fmt.Fprintf(x.stdout, "total_reports=%d machines=%d suspects=%d\n",
		s.TotalReports, s.Machines, s.Suspects)
	return 0
}

func (x *cli) flood(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("flood", flag.ContinueOnError)
	n := fs.Int("n", 100, "number of batches to send")
	machines := fs.Int("machines", 20, "distinct machines to spread reports over")
	batch := fs.Int("batch", 32, "reports per batch")
	source := fs.String("source", "ceectl-flood", "batch source id (idempotency key)")
	if status, ok := parse(fs, args, x.stderr); !ok {
		return status
	}
	if *n <= 0 || *machines <= 0 || *batch <= 0 {
		fmt.Fprintln(x.stderr, "ceectl flood: -n, -machines, -batch must be positive")
		return 2
	}
	counts := map[string]int{}
	for seq := 1; seq <= *n; seq++ {
		reports := make([]report.Report, *batch)
		for i := range reports {
			m := (seq**batch + i) % *machines
			reports[i] = report.Report{
				Machine: fmt.Sprintf("m%05d", m),
				Core:    m % 8, // concentrate per machine so suspects nominate
				Kind:    "crash",
				Detail:  "ceectl flood",
				TimeSec: float64(seq),
			}
		}
		ack, err := x.c.ReportBatchContext(ctx, report.Batch{
			Source: *source, Seq: uint64(seq), Reports: reports,
		})
		if err != nil {
			// Count it and keep flooding — the point of the tool is to
			// observe backpressure, not die to it. A batch the server shed
			// through every retry is not one that never reached it.
			if errors.Is(err, report.ErrShed) {
				counts["shed"]++
			} else {
				counts["unreachable"]++
			}
			continue
		}
		counts[ack.Status]++
	}
	fmt.Fprintf(x.stdout, "flood: sent=%d accepted=%d deferred=%d replaced=%d duplicate=%d shed=%d unreachable=%d\n",
		*n, counts["accepted"], counts["deferred"], counts["replaced"],
		counts["duplicate"], counts["shed"], counts["unreachable"])
	if counts["accepted"]+counts["deferred"]+counts["replaced"] == 0 {
		fmt.Fprintln(x.stderr, "ceectl flood: no batch was accepted")
		return 1
	}
	return 0
}
