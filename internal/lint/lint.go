// Package lint implements sgxlint, a repo-specific static-analysis suite
// that encodes the paper's security argument as compile-time invariants:
//
//   - cryptononce: every AES-GCM Seal call must derive its nonce from an
//     approved source, and sealing paths must bind non-empty AAD.
//   - determinism: trusted packages may not read nondeterministic inputs
//     (wall clock, math/rand, runtime introspection) because enclave step
//     functions must replay identically across AEX/ERESUME.
//   - lockdiscipline: fields annotated "// guarded by <mutex>" may only be
//     accessed where that mutex is held on every path (or in *Locked
//     helpers).
//   - plainflow: taint analysis — values returned by approved decrypt
//     functions are plaintext and must be re-encrypted before they reach an
//     untrusted sink (transport sends, shared/outside memory, logging,
//     error construction), through wrappers of any depth.
//   - lockorder: mutex nesting — a lock taken, directly or anywhere in a
//     possible callee, while another is held in lockdiscipline's sense —
//     must form an acyclic acquisition order, and every "guarded by"
//     annotation must name a real sibling mutex.
//   - immutable: fields annotated "// immutable after construction" may
//     only be written by the declaring package's constructors (or composite
//     literals), before the new value escapes the constructing frame.
//
// The four flow rules (lockdiscipline, lockorder, plainflow, immutable)
// are clients of one engine: per-function CFGs and a forward
// dataflow solver (cfg.go, dataflow.go), the module call graph with
// interface dispatch (callgraph.go), and a bottom-up SCC summary solver
// (summary.go). The two lock rules are two reports over one lock model
// (lockmodel.go).
//
// The driver is stdlib-only (go/parser + go/types with a recursive source
// importer) so go.mod stays dependency-free. Individual findings are
// suppressed with a justified annotation on the offending line or the line
// above it:
//
//	//lint:ignore <rule> <reason>
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one finding, formatted as "file:line: rule: message".
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Rule, d.Message)
}

// Checker is one self-contained rule.
type Checker interface {
	Name() string
	Doc() string
	Check(prog *Program, pkg *Package) []Diagnostic
}

// Config parameterizes the rules so fixtures and future modules can reuse
// them; DefaultConfig encodes this repository's trust boundary.
type Config struct {
	// TrustedPackages are the import paths inside the enclave trust
	// boundary: they may touch enclave-private state and are held to the
	// determinism rule.
	TrustedPackages []string
	// ApprovedNonceFns are function names whose results are acceptable
	// AES-GCM nonces.
	ApprovedNonceFns []string

	// TaintSources are function identities (types.Func.FullName form, e.g.
	// "repro/internal/tcb.Open" or "(crypto/cipher.AEAD).Open") whose
	// non-error results carry decrypted plaintext.
	TaintSources []string
	// TaintSinks are function identities whose arguments leave the trust
	// boundary (transport sends, outside-memory stores, log output, error
	// strings). Tainted values must not reach them.
	TaintSinks []string
	// TaintSanitizers are function identities that re-protect plaintext
	// (seal/encrypt/hash); their results are clean regardless of inputs.
	TaintSanitizers []string
}

// DefaultConfig returns the rule configuration for this repository's module
// path (normally "repro").
func DefaultConfig(modPath string) *Config {
	return &Config{
		TrustedPackages: []string{
			modPath + "/internal/enclave",
			modPath + "/internal/sgx",
			modPath + "/internal/tcb",
			modPath + "/internal/hwext",
		},
		ApprovedNonceFns: []string{
			"RandomBytes",
			"RandomNonce",
			"counterNonce",
			"NonceFromCounter",
		},
		TaintSources: []string{
			modPath + "/internal/tcb.Open",
			modPath + "/internal/tcb.OpenDeterministic",
			"(*" + modPath + "/internal/tcb.Sealer).Open",
			modPath + "/internal/tcb.DecryptCheckpoint",
			// Opens a checkpoint record in place; its result is the plaintext.
			"(*" + modPath + "/internal/tcb.LeafSealer).Open",
			"(crypto/cipher.AEAD).Open",
		},
		TaintSinks: []string{
			"(" + modPath + "/internal/core.Transport).Send",
			// Every bulk byte leaves as a frame; the *PageFrame argument
			// taints through its Data.
			"(" + modPath + "/internal/core.Transport).SendFrame",
			"(*" + modPath + "/internal/sgx.Env).OutsideStore",
			"(*" + modPath + "/internal/enclave.Call).OutsideStore",
			"(" + modPath + "/internal/sgx.OutsideMemory).Store",
			"(*" + modPath + "/internal/enclave.Runtime).WriteShared",
			"log.Print", "log.Printf", "log.Println",
			"log.Fatal", "log.Fatalf", "log.Fatalln",
			"fmt.Print", "fmt.Printf", "fmt.Println",
			"fmt.Fprint", "fmt.Fprintf", "fmt.Fprintln",
			"fmt.Errorf", "errors.New",
		},
		TaintSanitizers: []string{
			modPath + "/internal/tcb.Seal",
			modPath + "/internal/tcb.SealDeterministic",
			"(*" + modPath + "/internal/tcb.Sealer).Seal",
			modPath + "/internal/tcb.EncryptCheckpoint",
			// Seals a checkpoint record in its buffer and returns only an
			// error; listed so it is not mistaken for a laundering wrapper
			// should it ever grow a result.
			"(*" + modPath + "/internal/tcb.LeafSealer).Seal",
			"(crypto/cipher.AEAD).Seal",
			modPath + "/internal/tcb.Hash",
			modPath + "/internal/tcb.HashConcat",
			modPath + "/internal/tcb.MAC",
			modPath + "/internal/tcb.DeriveKey",
		},
	}
}

func (c *Config) trusted(importPath string) bool {
	for _, p := range c.TrustedPackages {
		if importPath == p {
			return true
		}
	}
	return false
}

// Checkers returns every rule, configured.
func Checkers(cfg *Config) []Checker {
	return []Checker{
		&cryptoNonce{cfg: cfg},
		&determinism{cfg: cfg},
		&lockDiscipline{},
		&plainFlow{cfg: cfg},
		&lockOrder{},
		&immutable{},
	}
}

// Run loads the module at root and applies every checker, returning the
// surviving (unsuppressed) diagnostics sorted by position. A nil cfg means
// DefaultConfig for the module's own path.
func Run(root string, cfg *Config) ([]Diagnostic, error) {
	return RunRules(root, cfg, nil)
}

// RunRules is Run restricted to the named rules; a nil or empty list runs
// them all. Malformed //lint:ignore directives are reported regardless —
// suppression hygiene does not depend on which rules are selected.
func RunRules(root string, cfg *Config, only []string) ([]Diagnostic, error) {
	prog, err := Load(root)
	if err != nil {
		return nil, err
	}
	if cfg == nil {
		cfg = DefaultConfig(prog.ModulePath)
	}
	checkers := Checkers(cfg)
	if len(only) > 0 {
		sel := toSet(only)
		var kept []Checker
		for _, c := range checkers {
			if sel[c.Name()] {
				kept = append(kept, c)
			}
		}
		checkers = kept
	}
	return RunProgram(prog, checkers), nil
}

// RunProgram applies checkers to an already loaded program.
func RunProgram(prog *Program, checkers []Checker) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Packages {
		ign := collectIgnores(prog.Fset, pkg)
		diags = append(diags, ign.malformed...)
		for _, c := range checkers {
			for _, d := range c.Check(prog, pkg) {
				if !ign.suppresses(d) {
					diags = append(diags, d)
				}
			}
		}
	}
	// Fully deterministic order — file, line, rule, then column and message
	// as tiebreaks — so repeated runs and CI archives diff cleanly even when
	// one line carries several findings of the same rule.
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	return diags
}

// ignoreRe matches "//lint:ignore <rule> <reason>"; the reason is mandatory
// so every suppression carries its justification in the source.
var ignoreRe = regexp.MustCompile(`^//lint:ignore\s+(\S+)(?:\s+(.*))?$`)

type ignoreIndex struct {
	// byLine maps "filename:line" to the rules ignored at that line.
	byLine    map[string][]string
	malformed []Diagnostic
}

func collectIgnores(fset *token.FileSet, pkg *Package) *ignoreIndex {
	ign := &ignoreIndex{byLine: make(map[string][]string)}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				if strings.TrimSpace(m[2]) == "" {
					ign.malformed = append(ign.malformed, Diagnostic{
						Pos:     pos,
						Rule:    "ignore",
						Message: fmt.Sprintf("lint:ignore %s is missing its justification", m[1]),
					})
					continue
				}
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				ign.byLine[key] = append(ign.byLine[key], m[1])
			}
		}
	}
	return ign
}

// suppresses reports whether an ignore directive on the diagnostic's line,
// or on the line directly above it, names the diagnostic's rule.
func (ign *ignoreIndex) suppresses(d Diagnostic) bool {
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, rule := range ign.byLine[fmt.Sprintf("%s:%d", d.Pos.Filename, line)] {
			if rule == d.Rule || rule == "all" {
				return true
			}
		}
	}
	return false
}

// funcEnclosing walks decls to find the FuncDecl containing pos.
func funcEnclosing(f *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil && fd.Pos() <= pos && pos <= fd.End() {
			return fd
		}
	}
	return nil
}
