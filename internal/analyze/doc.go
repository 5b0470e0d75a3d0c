package analyze

import (
	"fmt"
	"html"
	"io"
	"strings"
)

// document is a format-neutral report: a title followed by headings,
// paragraphs, bullet lists, tables and HTML-only chart blocks. Text may
// carry **bold** marks. writeMarkdown and writeHTML are its only
// writers, so every report reads the same in both formats.
type document struct {
	title  string
	blocks []*docBlock
}

type blockKind uint8

const (
	blockH2 blockKind = iota
	blockH3
	blockPara
	blockList
	blockTable
	blockHTML // charts; skipped in Markdown
)

type docBlock struct {
	kind  blockKind
	text  string     // heading or paragraph
	items []string   // list items, or the table's column headings
	verbs []string   // table: one fmt verb per column
	rows  [][]string // table rows
	html  func(*errWriter)
}

func (d *document) add(b *docBlock) *docBlock {
	d.blocks = append(d.blocks, b)
	return b
}

func (d *document) h2(text string) { d.add(&docBlock{kind: blockH2, text: text}) }
func (d *document) h3(text string) { d.add(&docBlock{kind: blockH3, text: text}) }

func (d *document) para(format string, args ...any) {
	d.add(&docBlock{kind: blockPara, text: fmt.Sprintf(format, args...)})
}

func (d *document) list(items []string) { d.add(&docBlock{kind: blockList, items: items}) }

// chart adds an HTML-only block drawn by one of the SVG chart functions.
func (d *document) chart(draw func(*errWriter)) { d.add(&docBlock{kind: blockHTML, html: draw}) }

// table adds a table. verbs holds one fmt verb per column, separated by
// spaces; row formats each value with its column's verb.
func (d *document) table(verbs string, head ...string) *docBlock {
	return d.add(&docBlock{kind: blockTable, items: head, verbs: strings.Fields(verbs)})
}

// row appends one table row. A string value is written as it is,
// whatever its column's verb, so totals rows can leave cells blank.
func (b *docBlock) row(vals ...any) {
	cells := make([]string, len(vals))
	for i, v := range vals {
		if s, ok := v.(string); ok {
			cells[i] = s
		} else {
			cells[i] = fmt.Sprintf(b.verbs[i], v)
		}
	}
	b.rows = append(b.rows, cells)
}

// writeMarkdown renders d as GitHub-flavoured Markdown. One blank line
// separates blocks, and a table is always followed by one, even at the
// end of the document.
func writeMarkdown(w io.Writer, d *document) error {
	mw := &errWriter{w: w}
	mw.printf("# %s\n", d.title)
	gap := true
	for _, b := range d.blocks {
		if b.kind == blockHTML {
			continue
		}
		if gap {
			mw.printf("\n")
		}
		gap = true
		switch b.kind {
		case blockH2:
			mw.printf("## %s\n", b.text)
		case blockH3:
			mw.printf("### %s\n", b.text)
		case blockPara:
			mw.printf("%s\n", b.text)
		case blockList:
			for _, item := range b.items {
				mw.printf("- %s\n", item)
			}
		case blockTable:
			mdRow(mw, b.items)
			mw.printf("|%s\n", strings.Repeat("---|", len(b.items)))
			for _, r := range b.rows {
				mdRow(mw, r)
			}
			mw.printf("\n")
			gap = false
		}
	}
	return mw.err
}

func mdRow(mw *errWriter, cells []string) {
	mw.printf("|")
	for _, c := range cells {
		if c == "" {
			mw.printf(" |")
		} else {
			mw.printf(" %s |", c)
		}
	}
	mw.printf("\n")
}

// writeHTML renders d as one self-contained HTML page: the same blocks
// as the Markdown plus the inline SVG charts (no external assets, no
// scripts).
func writeHTML(w io.Writer, d *document) error {
	hw := &errWriter{w: w}
	hw.printf("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n")
	hw.printf("<title>%s</title>\n<style>%s</style>\n</head>\n<body>\n", html.EscapeString(d.title), reportCSS)
	hw.printf("<h1>%s</h1>\n", inlineHTML(d.title))
	for _, b := range d.blocks {
		switch b.kind {
		case blockH2:
			hw.printf("<h2>%s</h2>\n", inlineHTML(b.text))
		case blockH3:
			hw.printf("<h3>%s</h3>\n", inlineHTML(b.text))
		case blockPara:
			hw.printf("<p>%s</p>\n", inlineHTML(b.text))
		case blockList:
			hw.printf("<ul>\n")
			for _, item := range b.items {
				hw.printf("<li>%s</li>\n", inlineHTML(item))
			}
			hw.printf("</ul>\n")
		case blockTable:
			hw.printf("<table>\n")
			htmlRow(hw, "th", b.items)
			for _, r := range b.rows {
				htmlRow(hw, "td", r)
			}
			hw.printf("</table>\n")
		case blockHTML:
			b.html(hw)
		}
	}
	hw.printf("</body>\n</html>\n")
	return hw.err
}

func htmlRow(hw *errWriter, tag string, cells []string) {
	hw.printf("<tr>")
	for _, c := range cells {
		hw.printf("<%s>%s</%s>", tag, inlineHTML(c), tag)
	}
	hw.printf("</tr>\n")
}

// inlineHTML escapes s and turns its **bold** marks into <b> elements.
func inlineHTML(s string) string {
	esc := html.EscapeString(s)
	var b strings.Builder
	bold := false
	for {
		i := strings.Index(esc, "**")
		if i < 0 {
			b.WriteString(esc)
			return b.String()
		}
		b.WriteString(esc[:i])
		if bold {
			b.WriteString("</b>")
		} else {
			b.WriteString("<b>")
		}
		bold = !bold
		esc = esc[i+2:]
	}
}

const reportCSS = `body{font-family:sans-serif;margin:2em auto;max-width:64em;color:#222}` +
	`table{border-collapse:collapse;margin:1em 0}` +
	`th,td{border:1px solid #bbb;padding:0.25em 0.6em;text-align:right}` +
	`th{background:#eee}td:first-child,th:first-child{text-align:left}` +
	`svg{display:block;margin:0.5em 0}.legend{font-size:0.85em;color:#555}`

// errWriter latches the first write error so renderers can stay linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
