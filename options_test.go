package poise_test

import (
	"reflect"
	"testing"

	"poise/internal/experiments"
	"poise/internal/fleet"
	"poise/internal/glm"
	corepoise "poise/internal/poise"
	"poise/internal/profile"
	"poise/internal/sched"
	"poise/internal/serve"
	"poise/internal/sim"
	"poise/internal/traceio"
)

// optionBudget is the number of exported fields across the option and
// policy-parameter structs TestOptionBudget counts. A setting every
// caller leaves at one value is a constant, not a field: adding a
// knob means raising the budget, and removing one means lowering it.
const optionBudget = 59

func TestOptionBudget(t *testing.T) {
	n := 0
	for _, typ := range []reflect.Type{
		reflect.TypeFor[experiments.Options](),
		reflect.TypeFor[profile.SweepOptions](),
		reflect.TypeFor[sim.RunOptions](),
		reflect.TypeFor[sim.Job](),
		reflect.TypeFor[fleet.Options](),
		reflect.TypeFor[glm.Options](),
		reflect.TypeFor[corepoise.TrainOptions](),
		reflect.TypeFor[serve.Config](),
		reflect.TypeFor[serve.RetrainOptions](),
		reflect.TypeFor[traceio.CharacteriseOptions](),
		reflect.TypeFor[traceio.RecordOptions](),
		reflect.TypeFor[traceio.WriteOptions](),
		reflect.TypeFor[sched.CCWS](),
		reflect.TypeFor[sched.APCM](),
		reflect.TypeFor[sched.PCALSWL](),
		reflect.TypeFor[sched.RandomRestart](),
		reflect.TypeFor[corepoise.Policy](),
	} {
		fields := 0
		for i := range typ.NumField() {
			if typ.Field(i).IsExported() {
				fields++
			}
		}
		t.Logf("%-28s %d", typ, fields)
		n += fields
	}
	if n > optionBudget {
		t.Fatalf("%d exported option fields, over the budget of %d: make a setting nobody turns a constant, or raise optionBudget", n, optionBudget)
	}
	if n < optionBudget {
		t.Fatalf("down to %d exported option fields: lower optionBudget (%d) to keep them off", n, optionBudget)
	}
}
