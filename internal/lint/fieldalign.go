package lint

// Field-alignment report (report-only, `exspanlint -fieldalign`): for every
// struct in the analyzed packages, compare its size under the gc layout
// against the best size achievable by reordering fields. The tree pins no
// third-party modules, so this replaces the x/tools fieldalignment vettool
// with the same size math via go/types.Sizes. It is informational by
// design: several engine structs trade a few padding bytes for field
// grouping that mirrors how the fields are used, and `unsafe.Sizeof` fences pin the
// ones where layout is load-bearing.

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
)

// AlignReport is one struct whose fields could be packed tighter.
type AlignReport struct {
	Pos     string
	Struct  string
	Size    int64 // current size in bytes
	Optimal int64 // best size under field reordering
}

// FieldAlign computes the report for every named struct type in pkgs,
// sorted by wasted bytes (descending), then name.
func FieldAlign(pkgs []*Package, sizes types.Sizes) []AlignReport {
	var out []AlignReport
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if _, ok := ts.Type.(*ast.StructType); !ok {
						continue
					}
					obj := pkg.Info.Defs[ts.Name]
					if obj == nil {
						continue
					}
					// Generic structs have no concrete layout to size
					// (go/types.Sizes panics on type parameters).
					if named, ok := obj.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
						continue
					}
					st, ok := obj.Type().Underlying().(*types.Struct)
					if !ok || st.NumFields() == 0 {
						continue
					}
					cur := sizes.Sizeof(st)
					opt := optimalStructSize(st, sizes)
					if opt < cur {
						out = append(out, AlignReport{
							Pos:     pkg.Fset.Position(ts.Pos()).String(),
							Struct:  pkg.Types.Name() + "." + ts.Name.Name,
							Size:    cur,
							Optimal: opt,
						})
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		wi, wj := out[i].Size-out[i].Optimal, out[j].Size-out[j].Optimal
		if wi != wj {
			return wi > wj
		}
		return out[i].Struct < out[j].Struct
	})
	return out
}

func (r AlignReport) String() string {
	return fmt.Sprintf("%s: struct %s is %d bytes; optimal field order is %d (-%d)",
		r.Pos, r.Struct, r.Size, r.Optimal, r.Size-r.Optimal)
}

// optimalStructSize computes the struct's size with fields sorted by
// decreasing alignment then decreasing size — the classic packing that is
// optimal for the gc layout's padding rules.
func optimalStructSize(st *types.Struct, sizes types.Sizes) int64 {
	type fs struct{ size, align int64 }
	fields := make([]fs, 0, st.NumFields())
	for i := 0; i < st.NumFields(); i++ {
		t := st.Field(i).Type()
		fields = append(fields, fs{size: sizes.Sizeof(t), align: sizes.Alignof(t)})
	}
	sort.SliceStable(fields, func(i, j int) bool {
		if fields[i].align != fields[j].align {
			return fields[i].align > fields[j].align
		}
		return fields[i].size > fields[j].size
	})
	var off, maxAlign int64 = 0, 1
	for _, f := range fields {
		if f.align > maxAlign {
			maxAlign = f.align
		}
		if f.align > 0 && off%f.align != 0 {
			off += f.align - off%f.align
		}
		off += f.size
	}
	if off%maxAlign != 0 {
		off += maxAlign - off%maxAlign
	}
	return off
}
