package pml

import (
	"fmt"

	"repro/internal/tokenizer"
)

// Encoder tokenizes text; satisfied by *tokenizer.Tokenizer.
type Encoder interface {
	Encode(text string) []int
}

// SegmentKind distinguishes a module's own content pieces.
type SegmentKind int

const (
	// SegText is literal tokenized schema text.
	SegText SegmentKind = iota
	// SegParam is a parameter slot, encoded as <unk> tokens (§3.3).
	SegParam
	// SegChild marks where a nested module sits inside its parent; the
	// child's states are cached under its own name.
	SegChild
)

// Segment is one contiguous piece of a module's own content, with the
// absolute position ID of every token.
type Segment struct {
	Kind   SegmentKind
	Tokens []int // SegText: literal ids; SegParam: <unk> run
	Pos    []int // absolute position IDs, parallel to Tokens
	Param  string
	MaxLen int    // SegParam: the declared len
	Child  string // SegChild: nested module name
}

// ModuleLayout is a module with resolved absolute positions (§3.3: "the
// starting position ID is determined by the absolute location of the
// prompt module within the schema").
type ModuleLayout struct {
	Name      string
	Parent    string // enclosing module, "" at top level
	Anonymous bool   // anonymous modules are always included in prompts
	Start     int    // first position ID
	Len       int    // total positions spanned (incl. params and children)
	Segments  []Segment
	Children  []string // nested module names in document order
	UnionID   int      // index into Layout.Unions, -1 if not a union member
	Params    []*Param // declared parameters in document order
}

// OwnTokens returns the module's own token count (text + param slots,
// excluding nested children).
func (m *ModuleLayout) OwnTokens() int {
	n := 0
	for _, s := range m.Segments {
		n += len(s.Tokens)
	}
	return n
}

// Param returns the declared parameter by name, or nil.
func (m *ModuleLayout) Param(name string) *Param {
	for _, p := range m.Params {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// ParamSegment returns the slot segment for a parameter name, or nil.
func (m *ModuleLayout) ParamSegment(name string) *Segment {
	for i := range m.Segments {
		if m.Segments[i].Kind == SegParam && m.Segments[i].Param == name {
			return &m.Segments[i]
		}
	}
	return nil
}

// Layout is a schema compiled against a tokenizer and chat template: every
// module has an absolute position range, union members share starts, and
// parameter slots know their <unk> positions.
type Layout struct {
	Schema   *Schema
	Modules  map[string]*ModuleLayout
	Order    []string   // document order (encoding order)
	Unions   [][]string // member names per union
	TotalLen int        // positions consumed by the whole schema
}

// Compile resolves a schema's position-ID layout (§3.3). enc tokenizes
// text segments; tmpl wraps role-tagged text in the target LLM's chat
// format (§3.2.3).
func Compile(s *Schema, enc Encoder, tmpl *Template) (*Layout, error) {
	if tmpl == nil {
		tmpl = PlainTemplate()
	}
	ly := &Layout{
		Schema:  s,
		Modules: map[string]*ModuleLayout{},
	}
	c := &compiler{enc: enc, tmpl: tmpl, ly: ly}
	cursor, err := c.layoutNodes(s.Nodes, "", 0)
	if err != nil {
		return nil, err
	}
	ly.TotalLen = cursor
	return ly, nil
}

type compiler struct {
	enc    Encoder
	tmpl   *Template
	ly     *Layout
	anonID int
}

// layoutNodes lays out sibling nodes starting at position cursor, creating
// ModuleLayouts for named modules and anonymous text. parent is the
// enclosing module name ("" at top level). Returns the cursor after the
// last sibling.
func (c *compiler) layoutNodes(nodes []Node, parent string, cursor int) (int, error) {
	for _, n := range nodes {
		var err error
		cursor, err = c.layoutNode(n, parent, cursor)
		if err != nil {
			return 0, err
		}
	}
	return cursor, nil
}

func (c *compiler) layoutNode(n Node, parent string, cursor int) (int, error) {
	switch v := n.(type) {
	case *Text:
		// Top-level text becomes an anonymous always-included module;
		// inside a module it is part of the parent's own segments — but
		// layoutNode is only called for nodes that create modules; module
		// bodies are handled by layoutModuleBody.
		name := c.freshAnonName()
		toks := c.tmpl.Wrap(v.Role, c.enc.Encode(v.Content))
		m := &ModuleLayout{
			Name: name, Parent: parent, Anonymous: true,
			Start: cursor, UnionID: -1,
		}
		m.Segments = []Segment{textSegment(toks, cursor)}
		m.Len = len(toks)
		c.register(m)
		return cursor + len(toks), nil

	case *Module:
		return c.layoutModule(v, parent, cursor, -1)

	case *Union:
		// Reserve this union's slot before walking members so that
		// unions nested inside a member get distinct ids.
		uid := len(c.ly.Unions)
		c.ly.Unions = append(c.ly.Unions, nil)
		var members []string
		maxLen := 0
		for _, mem := range v.Members {
			end, err := c.layoutModule(mem, parent, cursor, uid)
			if err != nil {
				return 0, err
			}
			members = append(members, mem.Name)
			if sz := end - cursor; sz > maxLen {
				maxLen = sz
			}
		}
		c.ly.Unions[uid] = members
		// §3.3: union members share the starting position; the union
		// consumes the size of its largest child.
		return cursor + maxLen, nil

	case *Param:
		return 0, fmt.Errorf("pml: <param name=%q> outside a module", v.Name)

	default:
		return 0, fmt.Errorf("pml: unexpected node %T", n)
	}
}

func (c *compiler) layoutModule(mod *Module, parent string, cursor, unionID int) (int, error) {
	m := &ModuleLayout{
		Name: mod.Name, Parent: parent,
		Start: cursor, UnionID: unionID,
	}
	c.register(m)
	end, err := c.layoutModuleBody(mod.Nodes, m, cursor)
	if err != nil {
		return 0, err
	}
	m.Len = end - m.Start
	return end, nil
}

// layoutModuleBody lays out the contents of module m starting at cursor.
func (c *compiler) layoutModuleBody(nodes []Node, m *ModuleLayout, cursor int) (int, error) {
	for _, n := range nodes {
		switch v := n.(type) {
		case *Text:
			toks := c.tmpl.Wrap(v.Role, c.enc.Encode(v.Content))
			if len(toks) == 0 {
				continue
			}
			m.Segments = append(m.Segments, textSegment(toks, cursor))
			cursor += len(toks)

		case *Param:
			seg := Segment{
				Kind:   SegParam,
				Tokens: tokenizer.UnkRun(v.Len),
				Pos:    posRange(cursor, v.Len),
				Param:  v.Name,
				MaxLen: v.Len,
			}
			m.Segments = append(m.Segments, seg)
			m.Params = append(m.Params, v)
			cursor += v.Len

		case *Module:
			end, err := c.layoutModule(v, m.Name, cursor, -1)
			if err != nil {
				return 0, err
			}
			m.Segments = append(m.Segments, Segment{Kind: SegChild, Child: v.Name})
			m.Children = append(m.Children, v.Name)
			cursor = end

		case *Union:
			startLen := len(c.ly.Unions)
			end, err := c.layoutNode(v, m.Name, cursor)
			if err != nil {
				return 0, err
			}
			for _, member := range c.ly.Unions[startLen] {
				m.Segments = append(m.Segments, Segment{Kind: SegChild, Child: member})
				m.Children = append(m.Children, member)
			}
			cursor = end

		default:
			return 0, fmt.Errorf("pml: unexpected node %T in module %q", n, m.Name)
		}
	}
	return cursor, nil
}

func (c *compiler) register(m *ModuleLayout) {
	c.ly.Modules[m.Name] = m
	c.ly.Order = append(c.ly.Order, m.Name)
}

func (c *compiler) freshAnonName() string {
	for {
		name := fmt.Sprintf("_anon%d", c.anonID)
		c.anonID++
		if _, taken := c.ly.Modules[name]; !taken {
			return name
		}
	}
}

func textSegment(toks []int, start int) Segment {
	return Segment{Kind: SegText, Tokens: toks, Pos: posRange(start, len(toks))}
}

func posRange(start, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = start + i
	}
	return p
}

// AnonymousModules returns the always-included module names in order.
func (ly *Layout) AnonymousModules() []string {
	var out []string
	for _, name := range ly.Order {
		if ly.Modules[name].Anonymous {
			out = append(out, name)
		}
	}
	return out
}
