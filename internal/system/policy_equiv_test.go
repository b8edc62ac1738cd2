package system

import (
	"bytes"
	"testing"

	"dramless/internal/memctrl"
	"dramless/internal/obs"
	"dramless/internal/workload"
)

// policyEquivKernels keeps the per-policy conformance sweep affordable:
// one dense-read kernel and one write-heavy kernel.
var policyEquivKernels = []string{"gemver", "doitg"}

// policyExports runs kernel kname on a DRAM-less system under policy
// pol and returns the run plus its histogram JSON export.
func policyExports(t *testing.T, pol memctrl.Policy, kname string) (*Result, []byte) {
	t.Helper()
	k := workload.MustByName(kname)
	cfg := testConfig(DRAMLess)
	cfg.Scale = 128 << 10
	cfg.Policy = pol
	cfg.Obs = obs.New()
	res, err := Run(cfg, k)
	if err != nil {
		t.Fatalf("policy %q: %v", pol.Name, err)
	}
	var hb bytes.Buffer
	if err := cfg.Obs.Histograms().WriteJSON(&hb); err != nil {
		t.Fatal(err)
	}
	return res, hb.Bytes()
}

// TestPolicyConformance is the policy table's system-level oracle:
// every built-in policy must run deterministically — a cold run and a
// run forked from its populate/load checkpoint give identical phase
// walls and byte-identical histogram exports.
func TestPolicyConformance(t *testing.T) {
	for _, name := range memctrl.PolicyNames() {
		pol, err := memctrl.PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, kname := range policyEquivKernels {
			kname := kname
			t.Run(name+"/"+kname, func(t *testing.T) {
				serial, sh := policyExports(t, pol, kname)

				// Forked from the shared checkpoint: identical.
				k := workload.MustByName(kname)
				cfg := testConfig(DRAMLess)
				cfg.Scale = 128 << 10
				cfg.Policy = pol
				cfg.Obs = obs.New()
				cp, err := CapturePrefix(PrefixOf(cfg, k))
				if err != nil {
					t.Fatal(err)
				}
				forked, err := RunForked(cfg, k, cp)
				if err != nil {
					t.Fatal(err)
				}
				cp.Release()
				if forked.Total != serial.Total || forked.Kernel != serial.Kernel {
					t.Errorf("forked walls differ: total %v != %v", forked.Total, serial.Total)
				}
				var fb bytes.Buffer
				if err := cfg.Obs.Histograms().WriteJSON(&fb); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(fb.Bytes(), sh) {
					t.Error("forked histogram export not byte-identical to cold")
				}
			})
		}
	}
}

// TestPrefixOfNormalizesPolicy pins the checkpoint-key rules for the
// scheduling policy: a name lookup yields the same key as the exported
// value, a genuinely different policy splits the key, and organizations
// without a PRAM controller ignore the policy entirely.
func TestPrefixOfNormalizesPolicy(t *testing.T) {
	k := workload.MustByName("gemver")
	byName := func(kind Kind, name string) Config {
		t.Helper()
		p, err := memctrl.PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(kind)
		cfg.Policy = p
		return cfg
	}

	final := testConfig(DRAMLess)
	if final.Policy != memctrl.Final {
		t.Fatalf("default policy %q, want final", final.Policy.Name)
	}
	if PrefixOf(final, k) != PrefixOf(byName(DRAMLess, "FINAL"), k) {
		t.Error("policy lookup is case-insensitive; the prefix key must be too")
	}
	if PrefixOf(final, k) == PrefixOf(byName(DRAMLess, "palp"), k) {
		t.Error("different policies must split the prefix key")
	}

	// Non-PRAM organizations have no controller to schedule: the policy
	// must normalize away so they share checkpoints regardless.
	if PrefixOf(testConfig(Hetero), k) != PrefixOf(byName(Hetero, "palp"), k) {
		t.Error("policy split a prefix on an organization without a PRAM controller")
	}
}

// TestConfigValidatePolicyName pins the config-level error surface: a
// policy whose capabilities the controller cannot honor is rejected by
// Validate and by Run, and unknown names are rejected where names are
// resolved.
func TestConfigValidatePolicyName(t *testing.T) {
	if _, err := memctrl.PolicyByName("round-robin"); err == nil {
		t.Error("unknown policy name accepted")
	}
	cfg := testConfig(DRAMLess)
	cfg.Policy = memctrl.Policy{Name: "broken", PartitionOverlap: true}
	if err := cfg.Validate(); err == nil {
		t.Error("invalid policy capabilities accepted by Validate")
	}
	if _, err := Run(cfg, workload.MustByName("gemver")); err == nil {
		t.Error("invalid policy capabilities accepted by Run")
	}
}
