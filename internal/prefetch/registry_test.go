package prefetch

import (
	"strings"
	"testing"
)

func TestRegistryBaselines(t *testing.T) {
	for name, want := range map[string]string{
		"none":     "None",
		"nextline": "Next-Line",
		"tifs":     "TIFS",
	} {
		p, err := Resolve(Spec{Name: name})
		if err != nil {
			t.Errorf("Resolve(%q): %v", name, err)
			continue
		}
		if p.Name() != want {
			t.Errorf("Resolve(%q).Name() = %q, want %q", name, p.Name(), want)
		}
	}
}

func TestRegistryFreshInstances(t *testing.T) {
	a, err := Resolve(Spec{Name: "tifs"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Resolve(Spec{Name: "tifs"})
	if err != nil {
		t.Fatal(err)
	}
	if a.(*TIFS) == b.(*TIFS) {
		t.Error("Resolve returned a shared instance; engines are stateful and must be private per job")
	}
}

func TestRegistryUnknown(t *testing.T) {
	_, err := Resolve(Spec{Name: "markov"})
	if err == nil {
		t.Fatal("unknown engine accepted")
	}
	if !strings.Contains(err.Error(), "nextline") {
		t.Errorf("error does not list known engines: %v", err)
	}
}

func TestRegistryNamesSorted(t *testing.T) {
	names := Names()
	if len(names) < 3 {
		t.Fatalf("Names() = %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names() not sorted at %d: %v", i, names)
		}
	}
}

func TestSchemasSortedAndDescribed(t *testing.T) {
	schemas := Schemas()
	if len(schemas) < 3 {
		t.Fatalf("Schemas() = %d entries", len(schemas))
	}
	for i := 1; i < len(schemas); i++ {
		if schemas[i-1].Name >= schemas[i].Name {
			t.Errorf("Schemas() not sorted at %d", i)
		}
	}
	for _, s := range schemas {
		d := s.Describe()
		if !strings.HasPrefix(d, s.Name+" — ") {
			t.Errorf("Describe(%s) header = %q", s.Name, strings.SplitN(d, "\n", 2)[0])
		}
		for _, p := range s.Params {
			if !strings.Contains(d, p.Name) {
				t.Errorf("Describe(%s) missing param %q", s.Name, p.Name)
			}
		}
		if len(s.Ignores) > 0 && !strings.Contains(d, "accepts and ignores") {
			t.Errorf("Describe(%s) does not list ignored params", s.Name)
		}
	}
}

func TestRegisterRejectsBadInput(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	ctor := func(Params) Prefetcher { return None{} }
	mustPanic("empty name", func() { Register(Schema{Name: "", New: ctor}) })
	mustPanic("nil constructor", func() { Register(Schema{Name: "x"}) })
	mustPanic("duplicate", func() { Register(Schema{Name: "none", New: ctor}) })
	mustPanic("duplicate param", func() {
		Register(Schema{Name: "x", New: ctor, Params: []Param{{Name: "a"}, {Name: "a"}}})
	})
	mustPanic("empty param name", func() {
		Register(Schema{Name: "x", New: ctor, Params: []Param{{Name: ""}}})
	})
}
