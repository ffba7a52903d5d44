package copernicus_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testSeams lists exported functions and methods under internal/ that no
// non-test file calls but that other packages' tests use. Each key is
// "package.Func" or "package.Type.Method"; the value says why it stays.
var testSeams = map[string]string{
	"backend.ResetNativeMeasureStats": "chaos and backend tests zero the native backend's retry and breaker counters between cases",
	"cluster.Ring.Owner":              "service's cluster test kills the worker that owns a sweep; ring tests pin placement through it",
	"faults.P.Disarm":                 "backend and service tests disarm the one point they armed",
	"faults.DisarmAll":                "fault tests in every layer reset the registry in cleanup",
	"formats.BCSREnc.Block":           "hlsim's row-decompression model tests read the BCSR stream",
	"formats.BCSREnc.BlockRowRange":   "hlsim's row-decompression model tests read the BCSR stream",
	"formats.BCSREnc.ColIdx":          "hlsim's row-decompression model tests read the BCSR stream",
	"formats.CSREnc.ColIdx":           "hlsim's row-decompression model tests read the CSR stream",
	"formats.CSREnc.RowRange":         "hlsim's row-decompression model tests read the CSR stream",
	"formats.DIAEnc.DiagNo":           "hlsim's row-decompression model tests read the DIA stream",
	"formats.DIAEnc.Lane":             "hlsim's model and cost-table tests read the DIA stream",
	"formats.colLists.ColRows":        "hlsim's row-decompression model tests read the LIL stream (CSC and LIL share the layout)",
	"formats.colLists.ColVals":        "hlsim's row-decompression model tests read the LIL stream (CSC and LIL share the layout)",
	"formats.colLists.RowIdx":         "hlsim's row-decompression model tests read the CSC stream (CSC and LIL share the layout)",
	"formats.ellRect.Idx":             "hlsim's row-decompression model tests read the ELL stream (ELL and ELL+COO share the layout)",
	"formats.EncodeBCSRBlock":         "the root package's BenchmarkAblationBCSRBlock sweeps the block edge",
	"formats.EncodeELLCOOCap":         "the root package's BenchmarkAblationELLWidth sweeps the rectangle width cap",
	"matrix.CSR.Transpose":            "gen and kernels tests use it as the reference transpose",
	"matrix.Tile.EqualValues":         "formats and hlsim tests compare decoded tiles with it",
	"service.Server.HandlerPanics":    "chaos tests count the panics the recovery middleware absorbed",
	"service.Server.Jobs":             "chaos tests read job states and stats from the server's manager",
	"xrand.Rand.Shuffle":              "formats' reused-tile decode test shuffles its encodings with it",
}

// sharedNameSeams lists test seams whose name non-test code also uses
// for something else (a method of another type, a field, a package
// function), so the by-name scan counts them as called although only
// tests call them. They are listed, with a reason, so the record of seams
// is complete; the test checks that each is declared and that its name
// is still shared, or else it belongs in testSeams.
var sharedNameSeams = map[string]string{
	"faults.P.Hits":       "jobs, backend and service tests confirm a fault plan reached its site",
	"jobs.Manager.Get":    "service and chaos tests read one job's state through Server.Jobs",
	"matrix.CSR.Validate": "gen and workloads tests check the CSR invariants of generated matrices",
	"matrix.Equal":        "gen and mtx tests compare generated and round-tripped matrices",
	"matrix.Tile.At":      "formats tests' dense reference encoders read tiles entry by entry",
	"matrix.Tile.Clone":   "formats and hlsim tests corrupt copies of source tiles",
}

// interfaceMethods are method names that satisfy standard-library
// interfaces, which the repository does not declare, so no identifier in
// it names them.
var interfaceMethods = map[string]bool{
	"Error":     true,
	"Unwrap":    true,
	"String":    true,
	"ServeHTTP": true,
}

// TestExportedNamesHaveCallers holds every exported function and method
// declared under internal/ to a non-test caller. The scan is by name: an
// identifier counts as a use wherever it appears in a non-test file of the
// repository (perfbench included) outside the declaration it names.
// Comments do not count.
func TestExportedNamesHaveCallers(t *testing.T) {
	type decl struct {
		key, name string
		pos       token.Position
	}
	fset := token.NewFileSet()
	var decls []decl
	uses := map[string]int{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		pkg := filepath.Base(filepath.Dir(path))
		for _, d := range f.Decls {
			// A function's own name and its recursive calls (Name(…) in a
			// function, recv.Name(…) in a method) are not callers; a
			// same-named call into another package or value is.
			fd, _ := d.(*ast.FuncDecl)
			self := selfRefs(fd)
			ast.Inspect(d, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !self[id] {
					uses[id.Name]++
				}
				return true
			})
			if fd == nil || !internal || !fd.Name.IsExported() {
				continue
			}
			key := pkg + "." + fd.Name.Name
			if fd.Recv != nil {
				key = pkg + "." + recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			decls = append(decls, decl{key, fd.Name.Name, fset.Position(fd.Name.Pos())})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported declarations found under internal/; run from the repository root")
	}

	declared := map[string]bool{}
	var missing []string
	for _, d := range decls {
		declared[d.key] = true
		if uses[d.name] > 0 || interfaceMethods[d.name] {
			continue
		}
		if _, ok := testSeams[d.key]; ok {
			continue
		}
		missing = append(missing, d.pos.String()+": "+d.key)
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s has no non-test caller: delete it, move it into a _test.go file, or list it in testSeams with a reason", m)
	}
	for key := range testSeams {
		name := key[strings.LastIndex(key, ".")+1:]
		switch {
		case !declared[key]:
			t.Errorf("testSeams lists %s, which is not an exported declaration under internal/", key)
		case uses[name] > 0:
			t.Errorf("testSeams lists %s, which now has a non-test caller", key)
		}
	}
	for key := range sharedNameSeams {
		name := key[strings.LastIndex(key, ".")+1:]
		switch _, both := testSeams[key]; {
		case !declared[key]:
			t.Errorf("sharedNameSeams lists %s, which is not an exported declaration under internal/", key)
		case both:
			t.Errorf("%s is listed in both testSeams and sharedNameSeams", key)
		case uses[name] == 0:
			t.Errorf("sharedNameSeams lists %s, whose name no non-test code uses now: move it to testSeams", key)
		}
	}
}

// selfRefs returns the identifiers in fd that refer to fd itself (none
// for a nil fd).
func selfRefs(fd *ast.FuncDecl) map[*ast.Ident]bool {
	if fd == nil {
		return nil
	}
	self := map[*ast.Ident]bool{fd.Name: true}
	var recv string
	if fd.Recv != nil && len(fd.Recv.List[0].Names) > 0 {
		recv = fd.Recv.List[0].Names[0].Name
	}
	if fd.Body == nil {
		return self
	}
	sels := map[*ast.Ident]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if x, ok := n.(*ast.SelectorExpr); ok {
			sels[x.Sel] = true
			if id, ok := x.X.(*ast.Ident); ok && recv != "" && id.Name == recv && x.Sel.Name == fd.Name.Name {
				self[x.Sel] = true
			}
		}
		if x, ok := n.(*ast.Ident); ok && fd.Recv == nil && !sels[x] && x.Name == fd.Name.Name {
			self[x] = true
		}
		return true
	})
	return self
}

// recvType names a method's receiver type without pointer or type
// parameters.
func recvType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvType(x.X)
	case *ast.IndexExpr:
		return recvType(x.X)
	case *ast.IndexListExpr:
		return recvType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
