// Documentation lints: every Go package in the module must carry a
// package comment, every relative markdown link (including its heading
// anchor) must resolve, and every markdown file a Go file names must
// exist. All run as ordinary tests so CI's docs job fails the moment a
// package or a link goes undocumented.
package nice_test

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// lintSkipDirs are subtrees the package-doc lint does not descend
// into: example mains and the fixture consumer module are not part of
// the documented SDK surface.
var lintSkipDirs = map[string]bool{
	".git":     true,
	".github":  true,
	"docs":     true,
	"examples": true,
	"testdata": true,
}

// TestPackageDocs fails on any package — public SDK, cmd, or internal
// engine — that lacks a package comment.
func TestPackageDocs(t *testing.T) {
	var undocumented []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if lintSkipDirs[d.Name()] {
			return filepath.SkipDir
		}
		matches, err := filepath.Glob(filepath.Join(path, "*.go"))
		if err != nil {
			return err
		}
		documented, hasSource := false, false
		fset := token.NewFileSet()
		for _, m := range matches {
			if strings.HasSuffix(m, "_test.go") {
				continue
			}
			hasSource = true
			f, err := parser.ParseFile(fset, m, nil, parser.ParseComments|parser.PackageClauseOnly)
			if err != nil {
				return err
			}
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				documented = true
				break
			}
		}
		if hasSource && !documented {
			undocumented = append(undocumented, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range undocumented {
		t.Errorf("package %s has no package comment (add a doc.go)", p)
	}
}

var mdNameRE = regexp.MustCompile(`[\w./-]+\.md\b`)

// TestGoFilesNameExistingMarkdown fails when a comment or string in a
// .go file names a markdown file that exists neither next to the Go
// file nor at that path from the module root.
func TestGoFilesNameExistingMarkdown(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir // .git, .github, build outputs
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		body, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(body), "\n") {
			for _, name := range mdNameRE.FindAllString(line, -1) {
				if !fileExists(filepath.Join(filepath.Dir(path), name)) && !fileExists(name) {
					t.Errorf("%s:%d names %s, which does not exist", path, i+1, name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

var mdLinkRE = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestMarkdownLinks resolves every relative link in README.md,
// ROADMAP.md and docs/*.md: the target file must exist, and a heading
// anchor, when present, must match a heading in the target.
func TestMarkdownLinks(t *testing.T) {
	files := []string{"README.md", "ROADMAP.md", "CHANGES.md", "PAPER.md"}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, docs...)

	for _, f := range files {
		body, err := os.ReadFile(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for _, m := range mdLinkRE.FindAllStringSubmatch(string(body), -1) {
			link := m[1]
			if strings.Contains(link, "://") || strings.HasPrefix(link, "mailto:") {
				continue // external; not checked offline
			}
			target, anchor, _ := strings.Cut(link, "#")
			resolved := f
			if target != "" {
				resolved = filepath.Join(filepath.Dir(f), target)
				if _, err := os.Stat(resolved); err != nil {
					t.Errorf("%s: broken link %q: %v", f, link, err)
					continue
				}
			}
			if anchor != "" && strings.HasSuffix(resolved, ".md") {
				if !mdHasAnchor(t, resolved, anchor) {
					t.Errorf("%s: link %q: no heading with anchor #%s in %s",
						f, link, anchor, resolved)
				}
			}
		}
	}
}

// mdHasAnchor reports whether the markdown file has a heading whose
// GitHub-style slug equals anchor.
func mdHasAnchor(t *testing.T, file, anchor string) bool {
	t.Helper()
	body, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "#") {
			continue
		}
		if headingSlug(strings.TrimLeft(line, "# ")) == anchor {
			return true
		}
	}
	return false
}

// headingSlug is GitHub's heading-to-anchor rule: lowercase, drop
// everything but letters/digits/spaces/hyphens, spaces to hyphens.
func headingSlug(h string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(strings.TrimSpace(h)) {
		switch {
		case r == ' ':
			b.WriteRune('-')
		case r == '-' || r == '_' ||
			('a' <= r && r <= 'z') || ('0' <= r && r <= '9') || r > 127:
			b.WriteRune(r)
		}
	}
	return b.String()
}
