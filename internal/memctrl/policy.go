package memctrl

import (
	"fmt"
	"sort"
	"strings"
)

// Policy is a request scheduling policy of the PRAM controller: a name
// plus the capability vector it enables, each field one behavior of the
// channel/subsystem scheduling machinery. A Policy is a plain comparable
// value; the channel and subsystem read its booleans directly, so
// dispatch adds no per-request indirection or allocation to the hot path
// (the zero-allocation datapath contract of DESIGN.md §8).
//
// The zero value is the bare-metal capability vector without a name.
type Policy struct {
	// Name identifies the policy in PolicyByName, in rendered tables and
	// in the CLI.
	Name string
	// Interleave overlaps one partition's array access with another
	// row's bus transfer (multi-resource-aware interleaving,
	// Figure 12). Without it every chip operation runs to completion
	// before the chip's next one starts.
	Interleave bool
	// SelectiveErase pre-programs declared write-intent rows with
	// all-zero words in background idle time, so later real writes
	// need only SET pulses (Section V-A).
	SelectiveErase bool
	// PartitionOverlap enables PALP-style partition-aware read
	// ordering: within an interleaved read batch, reads whose target
	// partition still has in-flight array work are deferred to the
	// tail waves, and sequential prefetches skip busy partitions.
	// Keeping busy-partition reads out of the early waves stops them
	// from stalling the shared command/DQ bus frontier for every
	// later wave. Requires Interleave.
	PartitionOverlap bool
	// PauseReads enables device-level write pausing for demand reads:
	// a read targeting a partition with an in-flight program pauses
	// the program, senses, and resumes it (pause overhead charged by
	// the device model). Speculative prefetches never pause.
	PauseReads bool
	// WearLeveling makes the policy wear-aware: start-gap leveling is
	// enabled (with DefaultWear when the config leaves it off) and the
	// leveler's gap-move copies are deferred to the subsystem's idle
	// window instead of contending with the foreground request.
	WearLeveling bool
}

// The paper's four schedulers (Figure 13).
var (
	// BareMetal processes requests strictly in order: a read's
	// addressing phases never overlap another read's data burst.
	BareMetal = Policy{Name: "bare-metal"}
	// Interleaving is multi-resource-aware interleaving (Figure 12).
	Interleaving = Policy{Name: "interleaving", Interleave: true}
	// SelectiveErasing pre-RESETs declared write-intent rows
	// (Section V-A).
	SelectiveErasing = Policy{Name: "selective-erasing", SelectiveErase: true}
	// Final combines interleaving and selective erasing; the paper
	// applies it to DRAM-less by default.
	Final = Policy{Name: "final", Interleave: true, SelectiveErase: true}
)

// policies is the closed table of built-in policies: the paper's four,
// then the schedulers the arena tournament compares against them.
var policies = [...]Policy{
	BareMetal, Interleaving, SelectiveErasing, Final,
	// final + PALP-inspired partition read/write overlap.
	{Name: "palp", Interleave: true, SelectiveErase: true, PartitionOverlap: true},
	// final + write pausing: demand reads preempt in-flight programs.
	{Name: "pause-aware", Interleave: true, SelectiveErase: true, PauseReads: true},
	// final + start-gap leveling with gap moves deferred to idle windows.
	{Name: "wear-aware", Interleave: true, SelectiveErase: true, WearLeveling: true},
}

// Validate reports capability combinations the scheduling machinery
// cannot honor.
func (p Policy) Validate() error {
	if p.PartitionOverlap && !p.Interleave {
		return fmt.Errorf("memctrl: policy %q: partition overlap requires interleaving (there are no waves to reorder)", p.Name)
	}
	return nil
}

// avoidBusyPrefetch reports whether speculative prefetches skip busy
// partitions: PALP keeps them from extending the partition frontier
// behind an in-flight program, and pause-aware keeps a speculative
// sense from pausing a real program.
func (p Policy) avoidBusyPrefetch() bool { return p.PartitionOverlap || p.PauseReads }

// PolicyNames returns the built-in policy names in table order.
func PolicyNames() []string {
	out := make([]string, len(policies))
	for i, p := range policies {
		out[i] = p.Name
	}
	return out
}

// PolicyByName returns the built-in policy with the given name,
// case-insensitively, so Figure 13's column labels ("Bare-metal",
// "Final", ...) resolve too. Unknown names return an error listing the
// known ones.
func PolicyByName(name string) (Policy, error) {
	for _, p := range policies {
		if strings.EqualFold(p.Name, name) {
			return p, nil
		}
	}
	known := PolicyNames()
	sort.Strings(known)
	return Policy{}, fmt.Errorf("memctrl: unknown scheduling policy %q (known: %s)",
		name, strings.Join(known, ", "))
}
