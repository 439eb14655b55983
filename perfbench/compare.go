package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// compareMain prints head against base, metric by metric, for two
// results written with --out. Exact counts are compared on any hosts
// and must be equal. Host measurements (times, rates, memory) are
// compared only when both results come from the same host fingerprint;
// across hosts they are refused, since the difference would measure the
// hosts rather than the code.
func compareMain(args []string, stdout io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: perfbench compare base.json head.json")
	}
	base, err := readRecord(args[0])
	if err != nil {
		return err
	}
	head, err := readRecord(args[1])
	if err != nil {
		return err
	}
	return compare(base, head, stdout)
}

func readRecord(path string) (record, error) {
	var r record
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func compare(base, head record, w io.Writer) error {
	if base.Workload != head.Workload || base.Seed != head.Seed || base.Trace != head.Trace {
		return fmt.Errorf("results are not comparable: %s/seed %d/trace %d vs %s/seed %d/trace %d",
			base.Workload, base.Seed, base.Trace, head.Workload, head.Seed, head.Trace)
	}
	sameHost := base.Host.sameHost(head.Host)
	fmt.Fprintf(w, "workload %s  seed %d  trace %d\nbase commit %s\nhead commit %s\n",
		base.Workload, base.Seed, base.Trace, base.Host.Commit, head.Host.Commit)
	if !sameHost {
		bh, _ := json.Marshal(base.Host)
		hh, _ := json.Marshal(head.Host)
		fmt.Fprintf(w, "host fingerprints differ: host measurements are not compared\n  base %s\n  head %s\n", bh, hh)
	}
	// The extra figures are host measurements compared like the others.
	base.Metrics, head.Metrics = withExtra(base), withExtra(head)
	names := map[string]bool{}
	for n := range base.Metrics {
		names[n] = true
	}
	for n := range head.Metrics {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	changed := 0
	for _, n := range sorted {
		b, okb := base.Metrics[n]
		h, okh := head.Metrics[n]
		switch {
		case !okb || !okh:
			fmt.Fprintf(w, "  %-34s only in one result\n", n)
			changed++
		case exactUnits[b.Unit]:
			verdict := "same"
			if b.Value != h.Value {
				verdict = "CHANGED"
				changed++
			}
			fmt.Fprintf(w, "  %-34s %16.6g %16.6g %-9s %s\n", n, b.Value, h.Value, b.Unit, verdict)
		case !sameHost:
			fmt.Fprintf(w, "  %-34s refused: different hosts\n", n)
		default:
			delta := "n/a"
			if b.Value != 0 {
				delta = fmt.Sprintf("%+.2f%%", 100*(h.Value-b.Value)/b.Value)
			}
			fmt.Fprintf(w, "  %-34s %16.6g %16.6g %-9s %s\n", n, b.Value, h.Value, b.Unit, delta)
		}
	}
	if base.Failed != 0 || head.Failed != 0 {
		return fmt.Errorf("failed cells: base %d, head %d", base.Failed, head.Failed)
	}
	if changed > 0 {
		return fmt.Errorf("%d exact metrics differ: the simulated results changed", changed)
	}
	return nil
}

// withExtra returns a record's metrics and extra figures in one set.
func withExtra(r record) metrics {
	all := metrics{}
	for n, m := range r.Metrics {
		all[n] = m
	}
	for n, m := range r.Extra {
		all[n] = m
	}
	return all
}
