package poise_test

import (
	"testing"

	"poise"
)

func tinyCfg() poise.Config { return poise.DefaultConfig().Scale(2) }

func TestFacadeRunGTO(t *testing.T) {
	w := poise.Workloads(poise.Small).Must("wc")
	pol, err := poise.NewPolicy(poise.PolicySpec{Name: "gto"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := poise.Run(tinyCfg(), w, pol)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 || res.Instructions == 0 {
		t.Fatalf("bad result: %+v", res)
	}
}

func TestFacadePolicies(t *testing.T) {
	for _, name := range []string{"gto", "fixed", "ccws", "apcm", "random-restart", "poise"} {
		spec := poise.PolicySpec{Name: name, N: 4, P: 2, Seed: 1}
		pol, err := poise.NewPolicy(spec)
		if err != nil {
			if name == "poise" {
				t.Skipf("no embedded weights: %v", err)
			}
			t.Fatalf("%s: %v", name, err)
		}
		if pol.Name() == "" {
			t.Fatalf("%s: empty policy name", name)
		}
	}
	if _, err := poise.NewPolicy(poise.PolicySpec{Name: "bogus"}); err == nil {
		t.Fatal("unknown policy must error")
	}
}

// TestFacadeProfilePoliciesNeedProfiles: without profiles there is no
// SWL or Static-Best tuple to run, and no SWL start for PCAL.
func TestFacadeProfilePoliciesNeedProfiles(t *testing.T) {
	for _, name := range []string{"swl", "static-best", "pcal-swl"} {
		if pol, err := poise.NewPolicy(poise.PolicySpec{Name: name}); err == nil {
			t.Errorf("%s without Profiles built %s", name, pol.Name())
		}
	}
}

// TestFacadeRefusesInvalidParams: a Params override that fails
// Validate builds no policy, whichever policy it names; a valid one
// builds them all.
func TestFacadeRefusesInvalidParams(t *testing.T) {
	overrun := poise.DefaultParams()
	overrun.TPeriod = overrun.TFeature // warm-up plus feature window overrun the epoch
	for _, name := range []string{"gto", "ccws", "apcm", "random-restart", "poise"} {
		for _, bad := range []poise.Params{{}, overrun} {
			if pol, err := poise.NewPolicy(poise.PolicySpec{Name: name, Params: &bad}); err == nil {
				t.Errorf("%s built %s from invalid params %+v", name, pol.Name(), bad)
			}
		}
		good := poise.DefaultParams()
		if _, err := poise.NewPolicy(poise.PolicySpec{Name: name, Params: &good}); err != nil {
			t.Errorf("%s with the default params: %v", name, err)
		}
	}
}

func TestFacadeProfileBackedPolicies(t *testing.T) {
	w := poise.Workloads(poise.Small).Must("wc")
	k := w.Kernels[0]
	pr, err := poise.SweepSolutionSpace(tinyCfg(), k, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	profs := map[string]*poise.Profile{k.Name: pr}
	for _, name := range []string{"swl", "static-best", "pcal-swl"} {
		pol, err := poise.NewPolicy(poise.PolicySpec{Name: name, Profiles: profs})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := poise.Run(tinyCfg(), w, pol); err != nil {
			t.Fatalf("%s run: %v", name, err)
		}
	}
}

func TestFacadeDefaults(t *testing.T) {
	if err := poise.DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := poise.DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	if _, ok := poise.TrainedWeights(); !ok {
		t.Skip("no embedded weights in this build")
	}
}
