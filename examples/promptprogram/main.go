// Promptprogram demonstrates §3.2.4: writing a Python-like prompt program
// instead of PML, compiling it, and serving prompts against the compiled
// schema — including a multi-turn conversation over a promptcache.Session,
// which owns the growing KV state across turns.
//
//	go run ./examples/promptprogram
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/model"
	"repro/internal/promptlang"
	"repro/internal/tokenizer"
	"repro/promptcache"
)

const program = `
# A support-desk schema as a prompt program.
schema helpdesk:
  system "You are a patient support agent."
  if warranty:
    emit "The warranty covers parts and labor for two years from purchase."
  if shipping:
    emit "Orders ship within three business days with tracking provided."
  def ticket(product: 3, issue: 6):
    emit "The customer owns a"
    arg product
    emit "and reports the following issue:"
    arg issue
  choose:
    when tier_free:
      emit "Free tier customers receive community support responses."
    when tier_pro:
      emit "Pro tier customers receive priority responses within one day."
`

func main() {
	ctx := context.Background()
	pmlSrc, err := promptlang.CompileToPML(program)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("compiled PML:")
	fmt.Println(pmlSrc)

	m, err := model.New(model.LlamaStyle(tokenizer.WordBase+4096, 77))
	if err != nil {
		log.Fatal(err)
	}
	client := promptcache.New(m)
	if _, err := client.RegisterSchema(pmlSrc); err != nil {
		log.Fatal(err)
	}

	// Multi-turn: the session owns the conversation's KV cache; each Send
	// pays prefill only for its own text.
	sess, first, err := client.NewSession(ctx, promptcache.Request{
		Prompt: `<prompt schema="helpdesk">
		  <warranty/>
		  <ticket product="coffee grinder" issue="burrs jam every morning"/>
		  <tier_pro/>
		  <user>Draft a first reply.</user>
		</prompt>`,
		Gen: promptcache.GenConfig{MaxTokens: 16},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("turn 1 (%d cached + %d new tokens): %s\n", first.CachedTokens, first.NewTokens, first.Text)

	second, err := sess.Send(ctx, "The customer replies that cleaning did not help.")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("turn 2 (session cache %d tokens): %s\n", sess.CachedTokens(), second.Text)
}
