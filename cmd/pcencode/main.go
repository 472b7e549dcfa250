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
	"flag"
	"fmt"
	"io"
	"os"

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
		arch       = fs.String("arch", "llama", "architecture: llama, llama-large, mpt, falcon, gpt2")
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
	var cfg model.Config
	switch *arch {
	case "llama":
		cfg = model.LlamaStyle(*vocab, *seed)
	case "llama-large":
		cfg = model.LlamaStyleLarge(*vocab, *seed)
	case "mpt":
		cfg = model.MPTStyle(*vocab, *seed)
	case "falcon":
		cfg = model.FalconStyle(*vocab, *seed)
	case "gpt2":
		cfg = model.GPT2Style(*vocab, *seed)
	default:
		return fmt.Errorf("unknown architecture %q", *arch)
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
	// Serve each declared module once so its blob is read back and
	// decoded: a blob that fails would silently re-encode.
	for _, name := range layout.Order {
		if layout.Modules[name].Anonymous {
			continue
		}
		prompt := fmt.Sprintf(`<prompt schema=%q>%s.</prompt>`, schema.Name, importOf(layout, name))
		if _, err := client.Infer(context.Background(), promptcache.Request{Prompt: prompt, PrefillOnly: true}); err != nil {
			return fmt.Errorf("verify failed serving module %q: %w", name, err)
		}
	}
	st := client.Engine().Stats()
	if st.ModulesEncoded != 0 || st.DiskLoadErrors != 0 {
		return fmt.Errorf("verify failed: %d modules re-encoded, %d blobs unreadable", st.ModulesEncoded, st.DiskLoadErrors)
	}
	fmt.Fprintf(stdout, "verify ok: %d modules restored, %d encoded\n", st.ModulesRestored, st.ModulesEncoded)
	return nil
}

// importOf returns a prompt import of the named module: a nested module
// can only be imported inside its parents, so it is wrapped in each of
// them, e.g. <travel-plan><overseas><tokyo/></overseas></travel-plan>.
func importOf(layout *pml.Layout, name string) string {
	s := "<" + name + "/>"
	for p := layout.Modules[name].Parent; p != ""; p = layout.Modules[p].Parent {
		s = "<" + p + ">" + s + "</" + p + ">"
	}
	return s
}
