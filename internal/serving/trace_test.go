package serving

import (
	"bytes"
	"strings"
	"testing"
)

func TestGenerateTraceDeterministic(t *testing.T) {
	cfg := baseConfig()
	a, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != cfg.Requests || len(a) != len(b) {
		t.Fatalf("lengths %d %d", len(a), len(b))
	}
	for i := range a {
		if strings.Join(a[i].Modules, ",") != strings.Join(b[i].Modules, ",") {
			t.Fatal("trace generation not deterministic")
		}
	}
}

func TestTraceJSONLRoundTrip(t *testing.T) {
	cfg := baseConfig()
	cfg.Requests = 50
	trace, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, trace); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(trace) {
		t.Fatalf("round trip %d != %d", len(got), len(trace))
	}
	for i := range got {
		if got[i].Suffix != trace[i].Suffix ||
			strings.Join(got[i].Modules, ",") != strings.Join(trace[i].Modules, ",") {
			t.Fatal("trace corrupted")
		}
	}
}

func TestReadTraceErrors(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("{not json")); err == nil {
		t.Fatal("bad JSON should fail")
	}
	if _, err := ReadTrace(strings.NewReader(`{"modules":[],"suffix":5}` + "\n")); err == nil {
		t.Fatal("empty modules should fail")
	}
	got, err := ReadTrace(strings.NewReader(""))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty file: %v %d", err, len(got))
	}
}

func TestRunTraceValidation(t *testing.T) {
	cfg := baseConfig()
	if _, err := RunTrace(cfg, nil); err == nil {
		t.Fatal("empty trace should fail")
	}
	if _, err := RunTrace(cfg, []Request{{Modules: []string{"ghost"}, Suffix: 10}}); err == nil {
		t.Fatal("unknown module should fail")
	}
	if _, err := RunTrace(Config{}, []Request{{Modules: []string{"m"}}}); err == nil {
		t.Fatal("missing device should fail")
	}
}

func TestRunTraceDefaultSuffix(t *testing.T) {
	cfg := baseConfig()
	st, err := RunTrace(cfg, []Request{{Modules: []string{cfg.Modules[0].Name}}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 1 || st.MeanTTFT <= 0 {
		t.Fatalf("stats = %+v", st)
	}
}
