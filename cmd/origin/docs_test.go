package main

import (
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// documents are the files whose command lines TestDocumentedCommandsParse
// checks, relative to the repository root.
var documents = []string{
	"README.md", "EXPERIMENTS.md", "DESIGN.md", "GUIDELINES.md",
	".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml",
}

// retired matches a path or backticked name of a command that origin
// replaced.
var retired = regexp.MustCompile("cmd/origin-|`origin-(run|explain|sweep|diff|experiments|dash)\\b")

// TestDocumentedCommandsParse: every `go run ./cmd/...` line of the
// documents names ./cmd/origin and one of its subcommands, and that
// subcommand's flag set parses the rest of the line. Continuation lines
// are joined, and a shell comment or redirection ends the command. No
// document names a retired command.
func TestDocumentedCommandsParse(t *testing.T) {
	found := 0
	for _, doc := range documents {
		b, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		text := string(b)
		if m := retired.FindString(text); m != "" {
			t.Errorf("%s names the retired %q", doc, m)
		}
		for _, l := range commandLines(text) {
			found++
			args := strings.Fields(l)
			if len(args) < 4 || args[2] != "./cmd/origin" {
				t.Errorf("%s: %q does not run ./cmd/origin with a subcommand", doc, l)
				continue
			}
			if !slices.ContainsFunc(commands, func(c command) bool { return c.name == args[3] }) {
				t.Errorf("%s: %q names no subcommand of origin", doc, l)
				continue
			}
			_, fs := newFlagSet(args[3], io.Discard)
			if err := fs.Parse(args[4:]); err != nil || fs.NArg() > 0 {
				t.Errorf("%s: %q does not parse (%v, stray %q)", doc, l, err, fs.Args())
			}
		}
	}
	if found < 20 {
		t.Errorf("found %d command lines in the documents; the scan is broken", found)
	}
}

// commandLines returns each `go run ./cmd/` command of text: from "go run"
// to the end of its line or inline code span, with backslash-continued
// lines joined, up to a shell comment or redirection.
func commandLines(text string) []string {
	text = strings.ReplaceAll(text, "\\\n", " ")
	var cmds []string
	for _, l := range strings.Split(text, "\n") {
		for {
			i := strings.Index(l, "go run ./cmd/")
			if i < 0 {
				break
			}
			l = l[i:]
			cmd := l
			if j := strings.IndexByte(cmd, '`'); j >= 0 {
				cmd = cmd[:j]
			}
			l = l[len(cmd):]
			var kept []string
			for _, f := range strings.Fields(cmd) {
				if strings.HasPrefix(f, "#") || strings.ContainsAny(f[:1], "<>|&;") || strings.HasPrefix(f, "2>") {
					break
				}
				kept = append(kept, f)
			}
			cmds = append(cmds, strings.Join(kept, " "))
		}
	}
	return cmds
}
