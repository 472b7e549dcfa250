package pml

import "repro/internal/tokenizer"

// Template maps chat-role tags onto an LLM's native conversation format
// (§3.2.3): Prompt Cache "dynamically translates and compiles these
// specialized tags to align with the designated prompt template of the
// LLM in use". A Template supplies the token sequences wrapped around each
// role's content.
type Template struct {
	Name string

	SystemPrefix, SystemSuffix       []int
	UserPrefix, UserSuffix           []int
	AssistantPrefix, AssistantSuffix []int
}

// Wrap surrounds content tokens with the role's prefix/suffix.
func (t *Template) Wrap(role Role, content []int) []int {
	var pre, suf []int
	switch role {
	case RoleSystem:
		pre, suf = t.SystemPrefix, t.SystemSuffix
	case RoleUser:
		pre, suf = t.UserPrefix, t.UserSuffix
	case RoleAssistant:
		pre, suf = t.AssistantPrefix, t.AssistantSuffix
	default:
		return content
	}
	out := make([]int, 0, len(pre)+len(content)+len(suf))
	out = append(out, pre...)
	out = append(out, content...)
	out = append(out, suf...)
	return out
}

// llamaTemplate formats roles in the Llama2 chat style:
// <s>[INST] <<SYS>> system <</SYS>> user [/INST] assistant </s>.
func llamaTemplate() *Template {
	return &Template{
		Name:            "llama",
		SystemPrefix:    []int{tokenizer.SysOpenID},
		SystemSuffix:    []int{tokenizer.SysCloseID},
		UserPrefix:      []int{tokenizer.InstOpenID},
		UserSuffix:      []int{tokenizer.InstCloseID},
		AssistantPrefix: nil,
		AssistantSuffix: []int{tokenizer.EosID},
	}
}

// chatMLTemplate formats roles in the ChatML-ish style MPT uses; with this
// repository's special-token inventory the role markers reuse the INST and
// SYS tokens but place BOS/EOS per message.
func chatMLTemplate() *Template {
	return &Template{
		Name:            "chatml",
		SystemPrefix:    []int{tokenizer.BosID, tokenizer.SysOpenID},
		SystemSuffix:    []int{tokenizer.SysCloseID, tokenizer.EosID},
		UserPrefix:      []int{tokenizer.BosID, tokenizer.InstOpenID},
		UserSuffix:      []int{tokenizer.EosID},
		AssistantPrefix: []int{tokenizer.BosID},
		AssistantSuffix: []int{tokenizer.EosID},
	}
}

// PlainTemplate passes role content through unwrapped (Falcon-style plain
// continuation models).
func PlainTemplate() *Template {
	return &Template{Name: "plain"}
}

// TemplateFor returns the conversation template used by the given
// architecture family name (the Config.Name values of internal/model).
func TemplateFor(arch string) *Template {
	switch arch {
	case "llama-style", "llama-style-large", "codellama-style":
		return llamaTemplate()
	case "mpt-style", "gpt2-style":
		return chatMLTemplate()
	default:
		return PlainTemplate()
	}
}
