package bench

import (
	"context"
	"fmt"

	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/tensor"
	"repro/internal/tokenizer"
	"repro/promptcache"
)

// The §5.6 use-case schemas, shared by the benches and the runnable
// examples. Contents are condensed stand-ins with the same modular
// structure as the paper's appendix schemas.

// CodeGenSchema is Fig. 6's multi-file code-generation schema: each
// source file is a prompt module.
const CodeGenSchema = `
<schema name="game-codegen">
  <system>You are an expert Python engineer. Use only the provided files.</system>
  <module name="unit-py">class Unit: def init takes unit id and position. def move updates position on the grid. def health returns remaining points.</module>
  <module name="map-py">class Map: def init takes grid size. def place puts a unit at coordinates. def neighbors lists adjacent cells for pathing.</module>
  <module name="player-py">class Player: def init takes player id and name. def units returns owned units. def score tallies captured cells.</module>
  <module name="game-py">class Game: def init takes players and map. def start game begins the loop. def turn advances one round and checks victory.</module>
  <module name="database-py">class Database: def init opens the store. def save writes game state. def load restores a session by id.</module>
</schema>`

// CodeGenPrompt is Fig. 6's user prompt importing four of the five files.
const CodeGenPrompt = `
<prompt schema="game-codegen">
  <unit-py/><map-py/><player-py/><game-py/>
  <user>Create a main entry point for the game, using Map, Player, and Game classes.</user>
</prompt>`

// PersonalizationSchema is Fig. 7's feature-based personalization schema:
// six trait categories, each a union of five mutually exclusive traits.
var PersonalizationSchema = buildPersonalizationSchema()

func buildPersonalizationSchema() string {
	cats := []struct {
		name   string
		traits [5]string
	}{
		{"grade", [5]string{"elementary-school", "middle-school", "high-school", "undergraduate", "graduate"}},
		{"proficiency", [5]string{"beginner", "novice", "intermediate", "advanced", "expert"}},
		{"history", [5]string{"studied-a-year-before", "studied-a-month-before", "first-exposure", "reviewing-for-exam", "self-taught-basics"}},
		{"style", [5]string{"auditory", "visual", "kinesthetic", "reading-writing", "collaborative"}},
		{"assessment", [5]string{"essay", "multiple-choice", "oral-exam", "project", "portfolio"}},
		{"motivation", [5]string{"high-intrinsic-motivation", "grade-driven", "career-driven", "curiosity-driven", "parent-encouraged"}},
	}
	s := "<schema name=\"learner-profile\">\n  <system>You are an education assistant describing learner profiles.</system>\n"
	for _, c := range cats {
		s += "  <union>\n"
		for _, t := range c.traits {
			s += fmt.Sprintf("    <module name=%q>the learner %s trait within %s shapes lesson pacing and feedback.</module>\n", t, t, c.name)
		}
		s += "  </union>\n"
	}
	s += "</schema>\n"
	return s
}

// PersonalizationPrompt is Fig. 7's prompt: one trait per category.
const PersonalizationPrompt = `
<prompt schema="learner-profile">
  <middle-school/><beginner/><studied-a-year-before/><auditory/><essay/><high-intrinsic-motivation/>
  <user>Concisely describe the learner's profile.</user>
</prompt>`

// TripPlanSchema is Fig. 8's parameterized travel schema: a duration
// parameter plus nested destination unions.
const TripPlanSchema = `
<schema name="travel-planner">
  <module name="travel-plan">
    Create a travel plan lasting <param name="for" len="4"/> with daily highlights.
    <union>
      <module name="overseas">
        international travel with flights and visas considered.
        <union>
          <module name="tokyo">destination tokyo japan with temples food and trains.</module>
          <module name="paris">destination paris france with museums cafes and walks.</module>
        </union>
      </module>
      <module name="domestic">
        regional travel by car or rail with flexible stops.
        <union>
          <module name="coast">destination the coast with beaches and seafood.</module>
          <module name="mountains">destination the mountains with trails and lodges.</module>
        </union>
      </module>
    </union>
  </module>
</schema>`

// TripPlanPrompt is Fig. 8's prompt: parameter value plus nested unions.
const TripPlanPrompt = `
<prompt schema="travel-planner">
  <travel-plan for="a week"><overseas><tokyo/></overseas></travel-plan>
  <user>Create a travel plan</user>
</prompt>`

// useCase bundles one §5.6 scenario.
type useCase struct {
	id, title      string
	schema, prompt string
	hwModel        hw.Model
	// paper-scale token counts inferred from the figure's latencies.
	cachedTokens, newTokens int
	// paper-reported milliseconds for the caption row.
	paperGPUBase, paperGPUCached float64
	paperCPUBase, paperCPUCached float64
}

func fig6Case() useCase {
	return useCase{
		id: "fig6", title: "Code generation with per-file prompt modules (CodeLlama-7B scale)",
		schema: CodeGenSchema, prompt: CodeGenPrompt,
		hwModel: hw.CodeLlama7B(), cachedTokens: 3000, newTokens: 40,
		paperGPUBase: 924, paperGPUCached: 93, paperCPUBase: 75976, paperCPUCached: 861,
	}
}

func fig7Case() useCase {
	return useCase{
		id: "fig7", title: "Personalization via trait unions (Llama2-7B scale)",
		schema: PersonalizationSchema, prompt: PersonalizationPrompt,
		hwModel: hw.Llama7B(), cachedTokens: 700, newTokens: 15,
		paperGPUBase: 216, paperGPUCached: 65, paperCPUBase: 22449, paperCPUCached: 686,
	}
}

func fig8Case() useCase {
	return useCase{
		id: "fig8", title: "Parameterized prompts (Llama2-7B scale)",
		schema: TripPlanSchema, prompt: TripPlanPrompt,
		hwModel: hw.Llama7B(), cachedTokens: 150, newTokens: 20,
		paperGPUBase: 75, paperGPUCached: 54, paperCPUBase: 4725, paperCPUCached: 479,
	}
}

// runUseCase produces the latency table at paper scale plus a real-engine
// output-fidelity check.
func runUseCase(uc useCase) (*Report, error) {
	rep := &Report{
		ID:     uc.id,
		Title:  uc.title,
		Header: []string{"Platform", "Baseline (ms)", "Prompt Cache (ms)", "Paper baseline", "Paper cached"},
	}
	gpu, cpu := hw.RTX4090(), hw.IntelI9()
	n := uc.cachedTokens + uc.newTokens
	gb := hw.BaselineTTFT(gpu, uc.hwModel, n)
	gc := hw.CachedTTFT(gpu, uc.hwModel, uc.cachedTokens, uc.newTokens, hw.FromLocal)
	cb := hw.BaselineTTFT(cpu, uc.hwModel, n)
	cc := hw.CachedTTFT(cpu, uc.hwModel, uc.cachedTokens, uc.newTokens, hw.FromLocal)
	rep.Rows = append(rep.Rows,
		[]string{"GPU (RTX 4090)", ms(gb.Seconds()), ms(gc.Seconds()),
			fmt.Sprintf("%.0f", uc.paperGPUBase), fmt.Sprintf("%.0f", uc.paperGPUCached)},
		[]string{"CPU (i9-13900K)", ms(cb.Seconds()), ms(cc.Seconds()),
			fmt.Sprintf("%.0f", uc.paperCPUBase), fmt.Sprintf("%.0f", uc.paperCPUCached)},
	)

	// Real-engine demo: serve the actual schema/prompt on the small
	// engine and compare cached vs baseline generations.
	m, err := model.New(model.LlamaStyle(tokenizer.WordBase+2048, 4242))
	if err != nil {
		return nil, err
	}
	client := promptcache.New(m)
	if _, err := client.RegisterSchema(uc.schema); err != nil {
		return nil, fmt.Errorf("%s schema: %w", uc.id, err)
	}
	ctx := context.Background()
	cres, err := client.Infer(ctx, promptcache.Request{Prompt: uc.prompt, Gen: promptcache.GenConfig{MaxTokens: 24}})
	if err != nil {
		return nil, fmt.Errorf("%s serve: %w", uc.id, err)
	}
	bres, err := client.Infer(ctx, promptcache.Request{Prompt: uc.prompt, Baseline: true, Gen: promptcache.GenConfig{MaxTokens: 24}})
	if err != nil {
		return nil, err
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("engine demo: %d cached + %d new tokens; cached/baseline logit cosine %.2f, generation overlap %.2f",
			cres.CachedTokens, cres.NewTokens,
			tensor.CosineSimilarity(cres.Logits, bres.Logits),
			metrics.TokenOverlap(cres.Tokens, bres.Tokens)),
	)
	return rep, nil
}

// Fig6 regenerates Figure 6 (multi-file code generation).
func Fig6() (*Report, error) { return runUseCase(fig6Case()) }

// Fig7 regenerates Figure 7 (feature-based personalization).
func Fig7() (*Report, error) { return runUseCase(fig7Case()) }

// Fig8 regenerates Figure 8 (parameterized prompts).
func Fig8() (*Report, error) { return runUseCase(fig8Case()) }
