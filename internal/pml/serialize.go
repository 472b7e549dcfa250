package pml

import (
	"fmt"
	"strings"
)

// escape replaces PML-reserved characters in text content and attribute
// values.
func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// Serialize renders a schema AST back to PML source. Parsing the result
// yields an equivalent AST (tested as a fixpoint property), which makes
// the promptlang compiler's output loadable by any PML consumer.
func Serialize(s *Schema) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "<schema name=%q>\n", s.Name)
	writeNodes(&sb, s.Nodes, 1)
	for _, sc := range s.Scaffolds {
		fmt.Fprintf(&sb, "  <scaffold name=%q modules=%q/>\n", sc.Name, strings.Join(sc.Modules, " "))
	}
	sb.WriteString("</schema>\n")
	return sb.String()
}

func indent(sb *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		sb.WriteString("  ")
	}
}

func writeNodes(sb *strings.Builder, nodes []Node, depth int) {
	for _, n := range nodes {
		indent(sb, depth)
		switch v := n.(type) {
		case *Text:
			switch v.Role {
			case RoleNone:
				sb.WriteString(escape(v.Content))
				sb.WriteString("\n")
			default:
				fmt.Fprintf(sb, "<%s>%s</%s>\n", v.Role, escape(v.Content), v.Role)
			}
		case *Param:
			fmt.Fprintf(sb, "<param name=%q len=\"%d\"/>\n", v.Name, v.Len)
		case *Module:
			writeModule(sb, v, depth)
		case *Union:
			sb.WriteString("<union>\n")
			for _, m := range v.Members {
				indent(sb, depth+1)
				writeModule(sb, m, depth+1)
			}
			indent(sb, depth)
			sb.WriteString("</union>\n")
		}
	}
}

func writeModule(sb *strings.Builder, m *Module, depth int) {
	if len(m.Nodes) == 0 {
		fmt.Fprintf(sb, "<module name=%q/>\n", m.Name)
		return
	}
	fmt.Fprintf(sb, "<module name=%q>\n", m.Name)
	writeNodes(sb, m.Nodes, depth+1)
	indent(sb, depth)
	sb.WriteString("</module>\n")
}
