package remote

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/prefetch"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func serializableJob(t *testing.T) runner.Job {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.WarmupInstrs = 1000
	// A non-zero measure offset (an exact shard job) must round-trip;
	// dropping it would measure the wrong interval (the wire v2→v3 bump).
	cfg.MeasureOffsetInstrs = 500
	cfg.MeasureInstrs = 1000
	return runner.Job{
		Label:    "fig10/OLTP DB2/nextline",
		Workload: workload.OLTPDB2(),
		Config:   cfg,
		Engine:   prefetch.Spec{Name: "nextline"},
	}
}

// processLocal names the sim.Job fields that do not cross the wire, by
// design: a worker takes the Program image from its own cache (images
// are pure functions of the workload), and EncodeJob refuses an
// Instrument hook.
var processLocal = map[string]bool{"Program": true, "Instrument": true}

// TestEncodeJobRoundTrip walks every sim.Job field: each must survive
// EncodeJob → JSON → JobSpec.Job, or be listed in processLocal. The
// fixture sets every other field, so a new field with no wire decision
// fails here.
func TestEncodeJobRoundTrip(t *testing.T) {
	prog, err := workload.ProgramFor(workload.OLTPDB2())
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []sim.Source{
		sim.SliceSource("/tmp/store", trace.Window{Off: 10, Len: 20}),
		sim.StoreSource("/tmp/store"),
	} {
		j := serializableJob(t)
		j.Program = prog
		j.From = src
		spec, err := EncodeJob(j)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var back JobSpec
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		got, err := back.Job()
		if err != nil {
			t.Fatal(err)
		}
		want, have := reflect.ValueOf(j), reflect.ValueOf(got)
		for i := 0; i < want.NumField(); i++ {
			name := want.Type().Field(i).Name
			switch {
			case processLocal[name]:
				if !have.Field(i).IsZero() {
					t.Errorf("%s: process-local field crossed the wire", name)
				}
			case want.Field(i).IsZero():
				t.Errorf("%s: the fixture leaves it zero; set it and decide whether it travels", name)
			case !reflect.DeepEqual(want.Field(i).Interface(), have.Field(i).Interface()):
				t.Errorf("%s: round trip changed it:\n sent %+v\n got  %+v", name, want.Field(i), have.Field(i))
			}
		}
	}
}

// TestEncodeJobTunedEngine locks the wire-v2 capability: a tuned engine
// spec — params and all — travels and rebuilds intact, where wire v1
// refused anything beyond a bare registry name.
func TestEncodeJobTunedEngine(t *testing.T) {
	j := serializableJob(t)
	j.Engine = prefetch.Spec{Name: "pif", Params: map[string]float64{
		"budget_kb": 512,
		"sabs":      2,
	}}
	spec, err := EncodeJob(j)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back JobSpec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	got, err := back.Job()
	if err != nil {
		t.Fatal(err)
	}
	if got.Engine.Name != "pif" || got.Engine.Params["budget_kb"] != 512 || got.Engine.Params["sabs"] != 2 {
		t.Errorf("tuned engine did not round-trip: %+v", got.Engine)
	}
	// The rebuilt spec resolves to a working engine instance.
	if _, err := prefetch.Resolve(got.Engine); err != nil {
		t.Errorf("rebuilt engine spec does not resolve: %v", err)
	}
}

func TestEncodeJobRejectsProcessLocalState(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*runner.Job)
		want string
	}{
		{"no-engine", func(j *runner.Job) { j.Engine = prefetch.Spec{} }, "names no engine"},
		{"unknown-engine", func(j *runner.Job) { j.Engine = prefetch.Spec{Name: "dropout"} }, "unknown engine"},
		{"invalid-engine-param", func(j *runner.Job) {
			j.Engine = prefetch.Spec{Name: "nextline", Params: map[string]float64{"degree": 0}}
		}, "below minimum"},
		{"unknown-engine-param", func(j *runner.Job) {
			j.Engine = prefetch.Spec{Name: "nextline", Params: map[string]float64{"stride": 2}}
		}, "unknown param"},
		{"instrument", func(j *runner.Job) {
			j.Instrument = func(prefetch.Prefetcher) {}
		}, "instrument callback"},
		{"unnamed-workload", func(j *runner.Job) { j.Workload = workload.Profile{} }, "unnamed workload"},
		{"off-registry-workload", func(j *runner.Job) { j.Workload.Seed++ }, "differs from the registry"},
		{"opaque-source", func(j *runner.Job) {
			j.From = opaqueSource{}
		}, "opaque source"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j := serializableJob(t)
			tc.mut(&j)
			_, err := EncodeJob(j)
			if err == nil {
				t.Fatal("EncodeJob accepted a non-serializable job")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestJobSpecRejectsForgedEngine asserts the worker-side decode
// validates engine specs too: a spec corrupted or forged in transit
// fails at Job(), before any simulation starts.
func TestJobSpecRejectsForgedEngine(t *testing.T) {
	mk := func() JobSpec {
		spec, err := EncodeJob(serializableJob(t))
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	s := mk()
	s.Engine.Name = ""
	if _, err := s.Job(); err == nil || !strings.Contains(err.Error(), "names no engine") {
		t.Errorf("engineless spec: %v", err)
	}
	s = mk()
	s.Engine.Params = map[string]float64{"degree": -3}
	if _, err := s.Job(); err == nil || !strings.Contains(err.Error(), "below minimum") {
		t.Errorf("out-of-range spec: %v", err)
	}
}

func TestEncodeResultRoundTrip(t *testing.T) {
	r := runner.Result{
		Index:   7,
		Label:   "cell",
		Sim:     sim.Result{Workload: "OLTP DB2", Instructions: 123, UIPC: 0.5},
		Err:     errors.New("boom"),
		Elapsed: 1500 * time.Millisecond,
	}
	wr := EncodeResult(r)
	b, err := json.Marshal(wr)
	if err != nil {
		t.Fatal(err)
	}
	var back WireResult
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	got, err := back.Result()
	if err != nil {
		t.Fatal(err)
	}
	if got.Index != r.Index || got.Label != r.Label || got.Sim != r.Sim || got.Elapsed != r.Elapsed {
		t.Errorf("round trip changed result:\n%+v\n%+v", r, got)
	}
	if got.Err == nil || got.Err.Error() != "boom" {
		t.Errorf("error not round-tripped: %v", got.Err)
	}
}

func TestWireVersionEnforced(t *testing.T) {
	if _, err := (JobSpec{V: WireVersion + 1, Workload: "OLTP DB2", Engine: prefetch.Spec{Name: "none"}}).Job(); err == nil {
		t.Error("future-version job spec accepted")
	}
	// A v1 peer (bare-name engine wire) must be refused, not
	// misinterpreted.
	if _, err := (JobSpec{V: 1, Workload: "OLTP DB2", Engine: prefetch.Spec{Name: "none"}}).Job(); err == nil {
		t.Error("v1 job spec accepted")
	}
	// A v2 peer predates Config.MeasureOffsetInstrs: it would silently
	// drop the offset of an exact shard job and measure the wrong
	// interval, so it too must be refused.
	if _, err := (JobSpec{V: 2, Workload: "OLTP DB2", Engine: prefetch.Spec{Name: "none"}}).Job(); err == nil {
		t.Error("v2 job spec accepted")
	}
	if _, err := (WireResult{V: 0}).Result(); err == nil {
		t.Error("unversioned result accepted")
	}
}

// FuzzJobSpecRoundTrip fuzzes the wire decode path: any JSON the
// coordinator or a worker receives either fails decode/validation or
// survives a marshal/unmarshal round trip unchanged — the same
// guarantee FuzzArtifactRoundTrip gives the results store. Engine param
// payloads are part of the fuzzed surface.
func FuzzJobSpecRoundTrip(f *testing.F) {
	seed, err := EncodeJob(runner.Job{
		Label:    "seed",
		Workload: workload.OLTPDB2(),
		Config:   sim.DefaultConfig(),
		Engine:   prefetch.Spec{Name: "pif"},
	})
	if err != nil {
		f.Fatal(err)
	}
	b, _ := json.Marshal(seed)
	f.Add(string(b))
	tuned, err := EncodeJob(runner.Job{
		Label:    "tuned",
		Workload: workload.WebApache(),
		Config:   sim.DefaultConfig(),
		Engine:   prefetch.Spec{Name: "tifs", Params: map[string]float64{"budget_kb": 64}},
	})
	if err != nil {
		f.Fatal(err)
	}
	tb, _ := json.Marshal(tuned)
	f.Add(string(tb))
	f.Add(`{"v":3,"workload":"OLTP DB2","engine":{"name":"none"},"source":{"kind":"slice","path":"/x","window":{"Off":1,"Len":2}}}`)
	f.Add(`{"v":3,"workload":"OLTP DB2","engine":{"name":"pif","params":{"history":2048,"index":512}}}`)
	f.Add(`{"v":3,"workload":"OLTP DB2","engine":{"name":"pif","params":{"history":1e309}}}`)
	f.Add(`{"v":3,"workload":"OLTP DB2","engine":{"name":"none"},"config":{"WarmupInstrs":10,"MeasureOffsetInstrs":5,"MeasureInstrs":10}}`)
	f.Add(`{"v":2,"workload":"OLTP DB2","engine":{"name":"none"}}`)
	f.Add(`{"v":1,"workload":"OLTP DB2","prefetcher":"none"}`)
	f.Add(`{"v":99}`)
	f.Add(`{}`)
	f.Fuzz(func(t *testing.T, in string) {
		var spec JobSpec
		if err := json.Unmarshal([]byte(in), &spec); err != nil {
			return
		}
		job, err := spec.Job()
		if err != nil {
			return
		}
		// A decodable job must re-encode to an equivalent spec.
		spec2, err := EncodeJob(job)
		if err != nil {
			t.Fatalf("decoded job does not re-encode: %v", err)
		}
		b1, _ := json.Marshal(spec2)
		job2, err := spec2.Job()
		if err != nil {
			t.Fatalf("re-encoded spec does not decode: %v", err)
		}
		spec3, err := EncodeJob(job2)
		if err != nil {
			t.Fatal(err)
		}
		b2, _ := json.Marshal(spec3)
		if string(b1) != string(b2) {
			t.Fatalf("round trip not stable:\n%s\n%s", b1, b2)
		}
	})
}

// opaqueSource is a sim.Source outside the built-in store and slice
// families: it has no wire spec.
type opaqueSource struct{}

// Open implements sim.Source.
func (opaqueSource) Open(context.Context) (trace.BatchIterator, sim.SourceInfo, error) {
	return nil, sim.SourceInfo{}, nil
}
