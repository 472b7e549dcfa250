// Command pcencode precomputes a schema's prompt-module attention states
// (§3.3) and persists them in a cache directory — the same warm-restart
// snapshot Client.SaveAll writes and promptcache.Open (and pcserve
// -cache-dir) restores — so serving processes open it instead of
// re-encoding.
//
// Usage:
//
//	pcencode -schema cities.pml -out cache/            # encode + save
//	pcencode -schema cities.pml -in cache/ -verify     # restore + check
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/model"
	"repro/internal/pml"
	"repro/internal/tokenizer"
	"repro/promptcache"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "pcencode: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command; it returns instead of exiting so tests can
// drive it.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pcencode", flag.ContinueOnError)
	var (
		schemaPath = fs.String("schema", "", "PML schema file (required)")
		outPath    = fs.String("out", "", "encode the schema and save it into this cache directory")
		inPath     = fs.String("in", "", "restore the schema from this cache directory")
		verify     = fs.Bool("verify", false, "with -in: serve every module and fail unless none re-encodes")
		arch       = fs.String("arch", "llama", "architecture: "+strings.Join(model.PresetNames(), ", "))
		seed       = fs.Uint64("seed", 1, "weight seed")
		vocab      = fs.Int("vocab", tokenizer.WordBase+8192, "vocabulary size")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *schemaPath == "" || (*outPath == "") == (*inPath == "") {
		return fmt.Errorf("usage: pcencode -schema s.pml (-out dir | -in dir [-verify])")
	}
	src, err := os.ReadFile(*schemaPath)
	if err != nil {
		return err
	}
	cfg, err := model.Preset(*arch, *vocab, *seed)
	if err != nil {
		return err
	}
	m, err := model.New(cfg)
	if err != nil {
		return err
	}

	if *outPath != "" {
		client := promptcache.New(m)
		info, err := client.RegisterSchema(string(src))
		if err != nil {
			return err
		}
		if err := client.SaveAll(*outPath); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "encoded schema %q: %d modules, %d position IDs -> %s\n",
			info.Name, len(info.Modules), info.Positions, *outPath)
		return nil
	}

	client, err := promptcache.Open(m, *inPath)
	if err != nil {
		return fmt.Errorf("restore failed: %w", err)
	}
	schema, err := pml.ParseSchema(string(src))
	if err != nil {
		return err
	}
	saved, err := client.Engine().SchemaSource(schema.Name)
	if err != nil {
		return fmt.Errorf("%s does not hold schema %q: %w", *inPath, schema.Name, err)
	}
	if saved != string(src) {
		return fmt.Errorf("schema %q in %s does not match %s", schema.Name, *inPath, *schemaPath)
	}
	layout, err := client.Engine().Layout(schema.Name)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "restored schema %q: %d modules without re-encoding\n", schema.Name, len(layout.Order))
	if !*verify {
		return nil
	}
	// Serve each declared module once, then each scaffold's members
	// together, so every blob is read back and decoded: a blob that fails
	// would silently re-encode.
	for _, name := range layout.Order {
		if layout.Modules[name].Anonymous {
			continue
		}
		if err := serveImports(client, schema.Name, importOf(layout, name)); err != nil {
			return fmt.Errorf("verify failed serving module %q: %w", name, err)
		}
	}
	for _, sc := range schema.Scaffolds {
		err := serveImports(client, schema.Name, importOf(layout, sc.Modules...))
		// A scaffold over union siblings can never be imported whole, so
		// no serve reads its blob.
		if err != nil && !errors.Is(err, promptcache.ErrBadPrompt) {
			return fmt.Errorf("verify failed serving scaffold %q: %w", sc.Name, err)
		}
	}
	st := client.Engine().Stats()
	if st.ModulesEncoded != 0 || st.DiskLoadErrors != 0 {
		return fmt.Errorf("verify failed: %d modules re-encoded, %d blobs unreadable", st.ModulesEncoded, st.DiskLoadErrors)
	}
	fmt.Fprintf(stdout, "verify ok: %d modules restored, %d encoded\n", st.ModulesRestored, st.ModulesEncoded)
	return nil
}

// serveImports prefills one prompt of the given imports.
func serveImports(client *promptcache.Client, schema, imports string) error {
	prompt := fmt.Sprintf(`<prompt schema=%q>%s.</prompt>`, schema, imports)
	_, err := client.Infer(context.Background(), promptcache.Request{Prompt: prompt, PrefillOnly: true})
	return err
}

// importOf returns prompt imports of the named modules: a nested module
// can only be imported inside its parents, so each is wrapped in them,
// e.g. <travel-plan><overseas><tokyo/></overseas></travel-plan>, and
// modules under one parent share its import.
func importOf(layout *pml.Layout, names ...string) string {
	want := map[string]bool{}
	for _, n := range names {
		for ; n != ""; n = layout.Modules[n].Parent {
			want[n] = true
		}
	}
	var render func(parent string) string
	render = func(parent string) string {
		var b strings.Builder
		for _, n := range layout.Order {
			if !want[n] || layout.Modules[n].Parent != parent {
				continue
			}
			if inner := render(n); inner != "" {
				b.WriteString("<" + n + ">" + inner + "</" + n + ">")
			} else {
				b.WriteString("<" + n + "/>")
			}
		}
		return b.String()
	}
	return render("")
}
