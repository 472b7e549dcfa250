// Package promptlang implements §3.2.4's prompt-program front end: a
// small Python-like language that compiles into PML schemas, so users
// never hand-write markup. The mapping follows the paper exactly:
//
//   - `if NAME:` blocks become <module> constructs (the module is
//     "activated" when a prompt imports it);
//   - choose-one constructs (`choose:` with `when NAME:` arms, the
//     analogue of if/elif/switch) map to <union> tags;
//   - function definitions (`def NAME(p: maxlen, ...):`) become modules
//     whose parameters carry the decorator-style max token length, with
//     `arg p` placing the slot;
//   - nested blocks become nested prompt modules;
//   - `emit`, `system`, `user`, `assistant` statements contribute text;
//   - `scaffold NAME: m1 m2` declares a scaffold set (§3.3).
//
// Example:
//
//	schema travel:
//	  emit "You are a travel planner."
//	  def trip_plan(duration: 4):
//	    emit "Plan a trip of"
//	    arg duration
//	    emit "days at a relaxed pace."
//	  choose:
//	    when tokyo:
//	      emit "Tokyo facts ..."
//	    when miami:
//	      emit "Miami facts ..."
package promptlang

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/pml"
)

// CompileError reports a promptlang syntax error.
type CompileError struct {
	Line int
	Msg  string
}

func (e *CompileError) Error() string {
	return fmt.Sprintf("promptlang: line %d: %s", e.Line, e.Msg)
}

func errLine(line int, format string, args ...any) *CompileError {
	return &CompileError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// line is one significant source line.
type line struct {
	num    int
	indent int
	text   string
}

// parse compiles promptlang source into a PML schema AST.
func parse(src string) (*pml.Schema, error) {
	lines, err := scan(src)
	if err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return nil, errLine(0, "empty program")
	}
	head := lines[0]
	name, ok := strings.CutPrefix(head.text, "schema ")
	if !ok || !strings.HasSuffix(name, ":") {
		return nil, errLine(head.num, "program must start with `schema NAME:`")
	}
	name = strings.TrimSuffix(strings.TrimSpace(name), ":")
	if name == "" {
		return nil, errLine(head.num, "schema needs a name")
	}
	p := &parser{lines: lines, pos: 1}
	nodes, scaffolds, err := p.parseBlock(head.indent, nil)
	if err != nil {
		return nil, err
	}
	if p.pos != len(lines) {
		return nil, errLine(p.lines[p.pos].num, "unexpected dedent structure")
	}
	s := &pml.Schema{Name: name, Nodes: nodes, Scaffolds: scaffolds}
	// Reuse PML's serializer+parser as the validator: it enforces name
	// uniqueness, reserved words and structural rules in one place.
	if _, err := pml.ParseSchema(pml.Serialize(s)); err != nil {
		return nil, fmt.Errorf("promptlang: compiled schema invalid: %w", err)
	}
	return s, nil
}

// CompileToPML compiles promptlang source to PML text.
func CompileToPML(src string) (string, error) {
	s, err := parse(src)
	if err != nil {
		return "", err
	}
	return pml.Serialize(s), nil
}

// scan splits source into significant lines with indentation depth.
// Tabs count as 4 spaces; blank lines and `#` comments are dropped.
func scan(src string) ([]line, error) {
	var out []line
	for i, raw := range strings.Split(src, "\n") {
		expanded := strings.ReplaceAll(raw, "\t", "    ")
		trimmed := strings.TrimLeft(expanded, " ")
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		out = append(out, line{num: i + 1, indent: len(expanded) - len(trimmed), text: strings.TrimRight(trimmed, " ")})
	}
	return out, nil
}

type parser struct {
	lines []line
	pos   int
}

// parseBlock consumes lines strictly more indented than parentIndent.
// scaffoldSink, when non-nil, receives scaffold declarations (only legal
// at schema top level).
func (p *parser) parseBlock(parentIndent int, parentParams map[string]int) ([]pml.Node, []pml.Scaffold, error) {
	var nodes []pml.Node
	var scaffolds []pml.Scaffold
	if p.pos >= len(p.lines) {
		return nil, nil, errLine(0, "expected an indented block")
	}
	blockIndent := p.lines[p.pos].indent
	if blockIndent <= parentIndent {
		return nil, nil, errLine(p.lines[p.pos].num, "expected an indented block")
	}
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		if l.indent < blockIndent {
			break
		}
		if l.indent > blockIndent {
			return nil, nil, errLine(l.num, "unexpected indent")
		}
		p.pos++
		switch {
		case strings.HasPrefix(l.text, "emit "):
			txt, err := parseString(l, strings.TrimPrefix(l.text, "emit "))
			if err != nil {
				return nil, nil, err
			}
			nodes = append(nodes, &pml.Text{Content: txt})

		case strings.HasPrefix(l.text, "system "), strings.HasPrefix(l.text, "user "), strings.HasPrefix(l.text, "assistant "):
			role, rest, _ := strings.Cut(l.text, " ")
			txt, err := parseString(l, rest)
			if err != nil {
				return nil, nil, err
			}
			nodes = append(nodes, &pml.Text{Content: txt, Role: roleOf(role)})

		case strings.HasPrefix(l.text, "arg "):
			pname := strings.TrimSpace(strings.TrimPrefix(l.text, "arg "))
			if parentParams == nil {
				return nil, nil, errLine(l.num, "`arg` only valid inside a def block")
			}
			maxlen, ok := parentParams[pname]
			if !ok {
				return nil, nil, errLine(l.num, "unknown parameter %q", pname)
			}
			nodes = append(nodes, &pml.Param{Name: pname, Len: maxlen})

		case strings.HasPrefix(l.text, "if "):
			mname, ok := strings.CutSuffix(strings.TrimSpace(strings.TrimPrefix(l.text, "if ")), ":")
			if !ok {
				return nil, nil, errLine(l.num, "if block must end with `:`")
			}
			body, _, err := p.parseBlock(blockIndent, parentParams)
			if err != nil {
				return nil, nil, err
			}
			nodes = append(nodes, &pml.Module{Name: strings.TrimSpace(mname), Nodes: body})

		case strings.HasPrefix(l.text, "def "):
			mod, err := p.parseDef(l, blockIndent)
			if err != nil {
				return nil, nil, err
			}
			nodes = append(nodes, mod)

		case l.text == "choose:" || strings.HasPrefix(l.text, "choose "):
			u, err := p.parseChoose(l, blockIndent, parentParams)
			if err != nil {
				return nil, nil, err
			}
			nodes = append(nodes, u)

		case strings.HasPrefix(l.text, "scaffold "):
			rest := strings.TrimPrefix(l.text, "scaffold ")
			namePart, modsPart, ok := strings.Cut(rest, ":")
			if !ok {
				return nil, nil, errLine(l.num, "scaffold syntax: scaffold NAME: m1 m2")
			}
			mods := strings.Fields(modsPart)
			if len(mods) == 0 {
				return nil, nil, errLine(l.num, "scaffold needs member modules")
			}
			scaffolds = append(scaffolds, pml.Scaffold{Name: strings.TrimSpace(namePart), Modules: mods})

		default:
			return nil, nil, errLine(l.num, "unrecognized statement %q", l.text)
		}
	}
	return nodes, scaffolds, nil
}

// parseDef handles `def NAME(p1: len1, p2: len2):`.
func (p *parser) parseDef(l line, blockIndent int) (*pml.Module, error) {
	sig, ok := strings.CutSuffix(strings.TrimSpace(strings.TrimPrefix(l.text, "def ")), ":")
	if !ok {
		return nil, errLine(l.num, "def block must end with `:`")
	}
	name := sig
	params := map[string]int{}
	if open := strings.IndexByte(sig, '('); open >= 0 {
		if !strings.HasSuffix(sig, ")") {
			return nil, errLine(l.num, "unterminated parameter list")
		}
		name = strings.TrimSpace(sig[:open])
		list := strings.TrimSpace(sig[open+1 : len(sig)-1])
		if list != "" {
			for _, part := range strings.Split(list, ",") {
				pn, ln, ok := strings.Cut(part, ":")
				if !ok {
					return nil, errLine(l.num, "parameter syntax is `name: maxlen`")
				}
				n, err := strconv.Atoi(strings.TrimSpace(ln))
				if err != nil || n <= 0 {
					return nil, errLine(l.num, "parameter %q needs a positive maxlen", strings.TrimSpace(pn))
				}
				params[strings.TrimSpace(pn)] = n
			}
		}
	}
	if name == "" {
		return nil, errLine(l.num, "def needs a name")
	}
	body, _, err := p.parseBlock(blockIndent, params)
	if err != nil {
		return nil, err
	}
	return &pml.Module{Name: name, Nodes: body}, nil
}

// parseChoose handles `choose:` blocks of `when NAME:` arms.
func (p *parser) parseChoose(l line, blockIndent int, parentParams map[string]int) (*pml.Union, error) {
	if p.pos >= len(p.lines) || p.lines[p.pos].indent <= blockIndent {
		return nil, errLine(l.num, "choose needs at least one `when` arm")
	}
	armIndent := p.lines[p.pos].indent
	u := &pml.Union{}
	for p.pos < len(p.lines) {
		al := p.lines[p.pos]
		if al.indent < armIndent {
			break
		}
		if al.indent > armIndent {
			return nil, errLine(al.num, "unexpected indent in choose block")
		}
		mname, ok := strings.CutSuffix(strings.TrimSpace(strings.TrimPrefix(al.text, "when ")), ":")
		if !strings.HasPrefix(al.text, "when ") || !ok {
			return nil, errLine(al.num, "choose arms must be `when NAME:`")
		}
		p.pos++
		body, _, err := p.parseBlock(armIndent, parentParams)
		if err != nil {
			return nil, err
		}
		u.Members = append(u.Members, &pml.Module{Name: strings.TrimSpace(mname), Nodes: body})
	}
	if len(u.Members) == 0 {
		return nil, errLine(l.num, "choose needs at least one `when` arm")
	}
	return u, nil
}

func parseString(l line, s string) (string, error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' {
		return "", errLine(l.num, "expected a double-quoted string, got %q", s)
	}
	return s[1 : len(s)-1], nil
}

func roleOf(word string) pml.Role {
	switch word {
	case "system":
		return pml.RoleSystem
	case "user":
		return pml.RoleUser
	case "assistant":
		return pml.RoleAssistant
	}
	return pml.RoleNone
}
