// Package unitchecker implements the cmd/go vet-tool protocol for the
// repo's determinism analyzers, with no dependency outside the
// standard library. It is a re-implementation of the protocol subset
// of golang.org/x/tools/go/analysis/unitchecker (which cannot be
// vendored in this container): `go vet -vettool=ompss-vet ./...`
// invokes the tool once per package with
//
//	ompss-vet -V=full                 # tool identity for the build cache
//	ompss-vet -flags                  # JSON list of supported flags
//	ompss-vet [-<analyzer>...] $WORK/.../vet.cfg
//
// where vet.cfg is a JSON description of one type-checked package
// unit: its Go files, the canonical import map, and the export-data
// file for every dependency (already compiled by the go command). The
// tool parses the files, type-checks against the export data via
// go/importer's gc lookup mode, runs the analyzers through the shared
// internal/lint/driver policy, prints findings as
// "file:line:col: message" lines on stderr, and exits non-zero if any
// survived — which go vet surfaces per package exactly like its
// built-in checks.
//
// Facts are not implemented: every analyzer in the suite is
// package-local. The fact file (cfg.VetxOutput) is still written —
// empty — because the go command caches and re-feeds it; dependency
// visits with VetxOnly set short-circuit before type-checking.
package unitchecker

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/driver"
)

// Config mirrors the JSON schema of the vet.cfg file the go command
// writes for each package unit (see cmd/go/internal/work and the
// x/tools unitchecker, which define the de-facto contract). Fields the
// suite never consults are kept so the decoder documents the full
// wire format.
type Config struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ModulePath                string
	ModuleVersion             string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Main is the entry point for a vet tool built over the suite: it
// never returns. Called with a single *.cfg argument it runs one
// package unit (the go vet protocol); called with anything else it
// re-execs itself through `go vet -vettool=<self> <args>`, so
// `ompss-vet ./...` works directly from a shell or Makefile.
func Main(analyzers ...*analysis.Analyzer) {
	fs := flag.NewFlagSet("ompss-vet", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ompss-vet [-<analyzer>...] <packages|vet.cfg>")
		fmt.Fprintln(os.Stderr, "analyzers (all run by default; naming any runs only those):")
		for _, a := range analyzers {
			doc, _, _ := strings.Cut(a.Doc, "\n")
			fmt.Fprintf(os.Stderr, "  -%-10s %s\n", a.Name, doc)
		}
	}
	version := fs.String("V", "", "print version and exit (go vet protocol; only -V=full is supported)")
	printFlags := fs.Bool("flags", false, "print the tool's flags as JSON and exit (go vet protocol)")
	enabled := make(map[string]*bool, len(analyzers))
	for _, a := range analyzers {
		doc, _, _ := strings.Cut(a.Doc, "\n")
		enabled[a.Name] = fs.Bool(a.Name, false, doc)
	}
	fs.Parse(os.Args[1:])

	if *version != "" {
		if *version != "full" {
			fmt.Fprintf(os.Stderr, "ompss-vet: unsupported flag -V=%s\n", *version)
			os.Exit(1)
		}
		printVersion()
		os.Exit(0)
	}
	if *printFlags {
		// go vet asks for the tool's flag schema so it can relay the
		// flags the user passed to it. Only the analyzer enable flags
		// are published: the protocol flags above are go vet's own
		// business, and publishing them would let `go vet -V=x` rebind
		// them.
		type jsonFlag struct {
			Name  string
			Bool  bool
			Usage string
		}
		var out []jsonFlag
		for _, a := range analyzers {
			doc, _, _ := strings.Cut(a.Doc, "\n")
			out = append(out, jsonFlag{Name: a.Name, Bool: true, Usage: doc})
		}
		data, err := json.Marshal(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ompss-vet: %v\n", err)
			os.Exit(1)
		}
		os.Stdout.Write(data)
		fmt.Println()
		os.Exit(0)
	}

	// Vet convention: naming any analyzer flag runs only the named
	// ones; naming none runs the full suite.
	run := analyzers
	var picked []*analysis.Analyzer
	for _, a := range analyzers {
		if *enabled[a.Name] {
			picked = append(picked, a)
		}
	}
	if len(picked) > 0 {
		run = picked
	}

	args := fs.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(runUnit(args[0], run, analyzers))
	}
	os.Exit(execGoVet(args))
}

// printVersion implements -V=full: a stable line containing the
// binary's own content hash, which the go command folds into its build
// cache key so edited analyzers invalidate cached vet results. The
// format replicates what cmd/go's toolID parser accepts.
func printVersion() {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ompss-vet: %v\n", err)
		os.Exit(1)
	}
	f, err := os.Open(exe)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ompss-vet: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Fprintf(os.Stderr, "ompss-vet: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", os.Args[0], h.Sum(nil))
}

// execGoVet is the convenience mode: re-exec through the go command so
// bare package patterns work (`ompss-vet ./...`). go vet owns package
// loading, caching and per-package invocation of this same binary in
// cfg mode.
func execGoVet(patterns []string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ompss-vet: %v\n", err)
		return 1
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + exe}, patterns...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		fmt.Fprintf(os.Stderr, "ompss-vet: %v\n", err)
		return 1
	}
	return 0
}

// runUnit analyzes one package unit described by a vet.cfg file and
// returns the process exit code: 0 clean, 1 operational failure, 2
// findings (mirroring cmd/vet).
func runUnit(cfgPath string, run, known []*analysis.Analyzer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ompss-vet: %v\n", err)
		return 1
	}
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "ompss-vet: parsing %s: %v\n", cfgPath, err)
		return 1
	}

	// The go command visits dependencies of the named packages purely
	// to collect facts (VetxOnly). The suite has none, so satisfy the
	// contract — the fact file must exist for the cache — and skip the
	// type-check entirely.
	writeVetx := func() bool {
		if cfg.VetxOutput == "" {
			return true
		}
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "ompss-vet: writing facts: %v\n", err)
			return false
		}
		return true
	}
	if cfg.VetxOnly {
		if !writeVetx() {
			return 1
		}
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintf(os.Stderr, "ompss-vet: %v\n", err)
			return 1
		}
		files = append(files, f)
	}

	pkg, info, err := typeCheck(fset, files, &cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "ompss-vet: %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	var names []string
	for _, a := range known {
		names = append(names, a.Name)
	}
	diags, err := driver.Analyze(fset, files, pkg, info, run, names)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ompss-vet: %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	if !writeVetx() {
		return 1
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%v: %s (%s)\n", fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// typeCheck resolves the unit's imports through the export-data files
// the go command already compiled (cfg.PackageFile), exactly as the
// compiler itself would see them.
func typeCheck(fset *token.FileSet, files []*ast.File, cfg *Config) (*types.Package, *types.Info, error) {
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	exportLookup := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return exportLookup.Import(path)
	})

	tcfg := types.Config{
		Importer:  imp,
		GoVersion: cfg.GoVersion,
		Sizes:     types.SizesFor(compiler, runtime.GOARCH),
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	pkg, err := tcfg.Check(cfg.ImportPath, fset, files, info)
	return pkg, info, err
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
