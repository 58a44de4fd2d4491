package sigstream

import (
	"errors"
	"strings"
	"testing"
)

func TestValidateAcceptsSensibleConfigs(t *testing.T) {
	for _, c := range []Config{
		{},
		{MemoryBytes: 64 << 10, Weights: Balanced},
		{MemoryBytes: 1 << 20, Weights: Weights{Alpha: 1, Beta: 500},
			BucketWidth: 16, ItemsPerPeriod: 10_000, DecayFactor: 0.9},
		{MemoryBytes: 4096, PeriodDuration: 60},
		{DecayFactor: 1}, // 1 = disabled, valid
	} {
		if err := c.Validate(); err != nil {
			t.Fatalf("config %+v rejected: %v", c, err)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{MemoryBytes: -1}, "negative"},
		{Config{MemoryBytes: 8}, "below one cell"},
		{Config{Weights: Weights{Alpha: -1}}, "negative significance"},
		{Config{BucketWidth: -2}, "BucketWidth is negative"},
		{Config{BucketWidth: 1000}, "long scan"},
		{Config{ItemsPerPeriod: -5}, "ItemsPerPeriod"},
		{Config{PeriodDuration: -1}, "PeriodDuration"},
		{Config{DecayFactor: 1.5}, "DecayFactor outside"},
		{Config{DecayFactor: -0.1}, "DecayFactor outside"},
		{Config{DecayFactor: 0.001}, "erases nearly everything"},
		{Config{TopK: -1}, "TopK is negative"},
		{Config{Sketch: SketchKind(9)}, "unknown Sketch"},
		{Config{ExpectedDistinct: -3}, "ExpectedDistinct is negative"},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if err == nil {
			t.Fatalf("config %+v accepted", c.cfg)
		}
		if !errors.Is(err, ErrInvalidConfig) {
			t.Fatalf("error not wrapped: %v", err)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("error %q missing %q", err, c.want)
		}
	}
}

func TestValidateAggregatesProblems(t *testing.T) {
	err := Config{MemoryBytes: -1, DecayFactor: 2}.Validate()
	if err == nil {
		t.Fatal("bad config accepted")
	}
	if !strings.Contains(err.Error(), ";") {
		t.Fatalf("multiple problems not aggregated: %v", err)
	}
}

// mustPanicInvalid asserts fn panics with an ErrInvalidConfig-wrapped
// error, the documented constructor behavior for invalid configurations.
func mustPanicInvalid(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s accepted an invalid config", name)
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrInvalidConfig) {
			t.Fatalf("%s panicked with %v, want ErrInvalidConfig", name, r)
		}
	}()
	fn()
}

// TestConstructorsRejectInvalidConfig pins the shared validation story:
// every constructor routes through Config.Validate instead of silently
// clamping.
func TestConstructorsRejectInvalidConfig(t *testing.T) {
	bad := Config{MemoryBytes: -1}
	mustPanicInvalid(t, "New", func() { New(bad) })
	mustPanicInvalid(t, "NewSharded", func() { NewSharded(bad, 4) })
	mustPanicInvalid(t, "NewWindow", func() { NewWindow(bad, 8, 2) })
	mustPanicInvalid(t, "NewBaseline", func() { NewBaseline(SpaceSaving, bad) })
	mustPanicInvalid(t, "NewBaseline kind", func() {
		NewBaseline(BaselineKind(42), Config{})
	})
}

// TestNewBaselineDefaultsAndKinds smoke-tests every kind through the
// unified constructor with a zero config.
func TestNewBaselineDefaultsAndKinds(t *testing.T) {
	for _, kind := range Baselines() {
		tr := NewBaseline(kind, Config{})
		if tr.Name() == "" || tr.MemoryBytes() <= 0 {
			t.Fatalf("%v: bad zero-config tracker %q/%d",
				kind, tr.Name(), tr.MemoryBytes())
		}
		tr.Insert(1)
		tr.EndPeriod()
	}
}
