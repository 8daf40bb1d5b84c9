package check

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Violation is one invariant failure, stamped with enough context to
// reproduce the trial that produced it.
type Violation struct {
	Experiment string        // owning experiment id when run under a sweep harness, else ""
	Layer      string        // subsystem the rule guards: tcpsim, h2, hpack, netsim, simtime, capture
	Rule       string        // stable rule identifier, e.g. "ignored-ack"
	Detail     string        // human-readable specifics, built only on failure
	At         time.Duration // virtual (or wall) time when the rule fired
	TrialSeed  int64         // the trial's seed as derived by the sweep's seedFor
	TrialIndex int           // flat trial index within the sweep (0 for single runs)
}

func (v Violation) String() string {
	return fmt.Sprintf("trial %d (seed %d) at %v: %s/%s: %s",
		v.TrialIndex, v.TrialSeed, v.At, v.Layer, v.Rule, v.Detail)
}

// maxRetained caps the violations a Recorder keeps with full detail;
// everything is still counted per rule.
const maxRetained = 256

// Recorder aggregates violations across the trials of a run. It is safe
// for concurrent use by parallel sweep workers: each trial's Checker
// flushes into it once, under Finalize.
type Recorder struct {
	mu         sync.Mutex
	trials     int
	failed     int
	total      int
	violations []Violation
	byRule     map[string]int
	repro      func(Violation) string
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{byRule: make(map[string]int)}
}

// SetRepro installs the command formatter used in reports to print how to
// re-run a failing trial (e.g. "h2attack -seed 42 -check").
func (r *Recorder) SetRepro(fn func(Violation) string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.repro = fn
	r.mu.Unlock()
}

func (r *Recorder) absorb(total int, violations []Violation) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.trials++
	if total == 0 {
		return
	}
	r.failed++
	r.total += total
	for _, v := range violations {
		r.byRule[v.Layer+"/"+v.Rule]++
		if len(r.violations) < maxRetained {
			r.violations = append(r.violations, v)
		}
	}
	// Rule instances beyond the checker's per-trial cap have no Violation
	// records; account for them under a catch-all bucket so totals add up.
	if extra := total - len(violations); extra > 0 {
		r.byRule["(beyond per-trial retention cap)"] += extra
	}
}

// Trials returns how many trials have flushed into the recorder.
func (r *Recorder) Trials() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.trials
}

// FailedTrials returns how many flushed trials had at least one violation.
func (r *Recorder) FailedTrials() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failed
}

// Total returns the violation count across all flushed trials.
func (r *Recorder) Total() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Violations returns a copy of the retained violations.
func (r *Recorder) Violations() []Violation {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Violation, len(r.violations))
	copy(out, r.violations)
	return out
}

// First returns the earliest-recorded violation, if any.
func (r *Recorder) First() (Violation, bool) {
	if r == nil {
		return Violation{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.violations) == 0 {
		return Violation{}, false
	}
	return r.violations[0], true
}

// Report renders the structured violation report as a string.
func (r *Recorder) Report() string {
	var b strings.Builder
	r.WriteReport(&b)
	return b.String()
}

// WriteReport writes the structured violation report: summary line,
// per-rule counts, and each retained violation with its repro command.
func (r *Recorder) WriteReport(w io.Writer) {
	if r == nil {
		fmt.Fprintln(w, "invariant checks: not armed")
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total == 0 {
		fmt.Fprintf(w, "invariant checks: OK (%d trial(s), 0 violations)\n", r.trials)
		return
	}
	fmt.Fprintf(w, "invariant checks: %d violation(s) in %d of %d trial(s)\n",
		r.total, r.failed, r.trials)
	rules := make([]string, 0, len(r.byRule))
	for rule := range r.byRule {
		rules = append(rules, rule)
	}
	sort.Strings(rules)
	for _, rule := range rules {
		fmt.Fprintf(w, "  %-32s x%d\n", rule, r.byRule[rule])
	}
	for i, v := range r.violations {
		fmt.Fprintf(w, "  [%d] %s\n", i, v.String())
		if r.repro != nil {
			fmt.Fprintf(w, "      repro: %s\n", r.repro(v))
		} else {
			fmt.Fprintf(w, "      repro: re-run trial %d with seed %d and -check\n",
				v.TrialIndex, v.TrialSeed)
		}
	}
}
