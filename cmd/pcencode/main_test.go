package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
)

// tripSchema is a flat travel schema with a parameter, a union and a
// scaffold, so the scaffold restore path runs too.
const tripSchema = `<schema name="trip">
  You are a helpful travel planner.
  <module name="plan">Plan a trip of <param name="days" len="3"/> days at a relaxed pace.</module>
  <union>
    <module name="tokyo">Tokyo is the capital of Japan with superb food and temples.</module>
    <module name="miami">Miami is a coastal city in Florida with beaches and surf.</module>
  </union>
  <module name="budget">Keep the budget modest and book trains early.</module>
  <scaffold name="plan-budget" modules="plan budget"/>
</schema>`

// TestEncodeThenVerifyRoundTrip: -out writes a cache directory that -in
// restores with zero modules re-encoded — for the flat schema above and
// for Fig. 8's trip-planner schema, whose destinations are unions nested
// two modules deep.
func TestEncodeThenVerifyRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name, schema string
		restored     int
	}{
		// Five modules (the preamble is an anonymous one) plus the scaffold.
		{"flat", tripSchema, 6},
		// travel-plan, overseas, domestic and four destinations.
		{"nested", bench.TripPlanSchema, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tmp := t.TempDir()
			schema := filepath.Join(tmp, "schema.pml")
			if err := os.WriteFile(schema, []byte(tc.schema), 0o644); err != nil {
				t.Fatal(err)
			}
			dir := filepath.Join(tmp, "cache")
			var out strings.Builder
			if err := run([]string{"-schema", schema, "-out", dir}, &out); err != nil {
				t.Fatalf("encode: %v\n%s", err, out.String())
			}
			if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
				t.Fatalf("-out wrote no cache directory: %v", err)
			}
			out.Reset()
			if err := run([]string{"-schema", schema, "-in", dir, "-verify"}, &out); err != nil {
				t.Fatalf("verify: %v\n%s", err, out.String())
			}
			want := fmt.Sprintf("verify ok: %d modules restored, 0 encoded", tc.restored)
			if !strings.Contains(out.String(), want) {
				t.Fatalf("verify output lacks %q:\n%s", want, out.String())
			}
		})
	}
}

// TestVerifyRejectsMismatchedSchema: a schema file that does not match
// the directory's copy fails instead of reporting success.
func TestVerifyRejectsMismatchedSchema(t *testing.T) {
	tmp := t.TempDir()
	schema := filepath.Join(tmp, "trip.pml")
	if err := os.WriteFile(schema, []byte(tripSchema), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(tmp, "cache")
	var out strings.Builder
	if err := run([]string{"-schema", schema, "-out", dir}, &out); err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(tripSchema, "book trains early", "book trains and ferries early", 1)
	if err := os.WriteFile(schema, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-schema", schema, "-in", dir, "-verify"}, &out); err == nil {
		t.Fatalf("edited schema verified against a stale directory:\n%s", out.String())
	}
}

// TestVerifyRejectsCorruptBlob: -verify reads every module back, so a
// damaged blob fails it instead of quietly re-encoding.
func TestVerifyRejectsCorruptBlob(t *testing.T) {
	tmp := t.TempDir()
	schema := filepath.Join(tmp, "trip.pml")
	if err := os.WriteFile(schema, []byte(tripSchema), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(tmp, "cache")
	var out strings.Builder
	if err := run([]string{"-schema", schema, "-out", dir}, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-schema", schema, "-in", dir}, &out); err != nil {
		t.Fatalf("restore without -verify: %v", err)
	}
	blobs, err := filepath.Glob(filepath.Join(dir, "blobs", "*.pckv"))
	if err != nil || len(blobs) == 0 {
		t.Fatalf("no blobs: %v", err)
	}
	// The largest blob holds a declared module, not the one-token
	// preamble or the scaffold.
	sort.Slice(blobs, func(i, j int) bool { return size(t, blobs[i]) > size(t, blobs[j]) })
	if err := os.WriteFile(blobs[0], []byte("corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-schema", schema, "-in", dir, "-verify"}, &out); err == nil {
		t.Fatalf("corrupt blob verified:\n%s", out.String())
	}
}

func size(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func TestUsage(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-schema", "x.pml"}, &out); err == nil {
		t.Fatal("neither -out nor -in should be a usage error")
	}
}
