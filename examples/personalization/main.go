// Personalization reproduces the Figure-7 scenario: learner traits are
// organized as six unions of five mutually exclusive modules each; every
// profile is one pick per union, and all 30 trait modules are cached once.
//
//	go run ./examples/personalization
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"repro/internal/bench"
	"repro/internal/model"
	"repro/internal/tokenizer"
	"repro/promptcache"
)

func main() {
	ctx := context.Background()
	m, err := model.New(model.MPTStyle(tokenizer.WordBase+4096, 9))
	if err != nil {
		log.Fatal(err)
	}
	client := promptcache.New(m)
	if _, err := client.RegisterSchema(bench.PersonalizationSchema); err != nil {
		log.Fatal(err)
	}

	profiles := []struct {
		label  string
		traits string
	}{
		{"middle-school beginner", "<middle-school/><beginner/><studied-a-year-before/><auditory/><essay/><high-intrinsic-motivation/>"},
		{"graduate expert", "<graduate/><expert/><reviewing-for-exam/><reading-writing/><project/><career-driven/>"},
		{"undergrad visual learner", "<undergraduate/><intermediate/><self-taught-basics/><visual/><multiple-choice/><curiosity-driven/>"},
	}
	for _, p := range profiles {
		prompt := fmt.Sprintf(`<prompt schema="learner-profile">%s<user>Concisely describe the learner's profile.</user></prompt>`, p.traits)
		t0 := time.Now()
		resp, err := client.Infer(ctx, promptcache.Request{Prompt: prompt, Gen: promptcache.GenConfig{MaxTokens: 18}})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-26s reused %3d tokens, total %v\n  -> %s\n", p.label, resp.CachedTokens, time.Since(t0), resp.Text)
	}

	// Union exclusivity is enforced and surfaces as a typed error.
	_, err = client.Infer(ctx, promptcache.Request{
		Prompt: `<prompt schema="learner-profile"><middle-school/><high-school/><user>x</user></prompt>`,
	})
	fmt.Printf("\nimporting two grade traits fails as expected (ErrBadPrompt=%v): %v\n",
		errors.Is(err, promptcache.ErrBadPrompt), err)
}
