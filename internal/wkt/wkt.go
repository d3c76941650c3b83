// Package wkt parses and serializes geometries in the OGC Well-Known Text
// format, the interchange representation iGDB stores in its relational
// tables (the paper stores every physical geometry — city polygons, standard
// paths, submarine cables — as WKT strings).
//
// Supported geometry types: POINT, LINESTRING, POLYGON, MULTIPOINT,
// MULTILINESTRING, MULTIPOLYGON and GEOMETRYCOLLECTION, plus EMPTY forms.
// Coordinates are 2-D lon/lat.
package wkt

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"igdb/internal/geo"
)

// Kind enumerates the geometry types.
type Kind int

// Geometry kinds, mirroring the OGC type names.
const (
	KindPoint Kind = iota
	KindLineString
	KindPolygon
	KindMultiPoint
	KindMultiLineString
	KindMultiPolygon
	KindGeometryCollection
)

// String returns the OGC tag for the kind.
func (k Kind) String() string {
	switch k {
	case KindPoint:
		return "POINT"
	case KindLineString:
		return "LINESTRING"
	case KindPolygon:
		return "POLYGON"
	case KindMultiPoint:
		return "MULTIPOINT"
	case KindMultiLineString:
		return "MULTILINESTRING"
	case KindMultiPolygon:
		return "MULTIPOLYGON"
	case KindGeometryCollection:
		return "GEOMETRYCOLLECTION"
	default:
		return fmt.Sprintf("KIND(%d)", int(k))
	}
}

// Geometry is a parsed WKT geometry. Exactly the fields relevant to its Kind
// are populated:
//
//   - KindPoint: Point
//   - KindLineString: Line
//   - KindPolygon: Rings (first is the exterior ring)
//   - KindMultiPoint: Points
//   - KindMultiLineString: Lines
//   - KindMultiPolygon: Polygons
//   - KindGeometryCollection: Geoms
type Geometry struct {
	Kind     Kind
	Empty    bool
	Point    geo.Point
	Line     []geo.Point
	Rings    [][]geo.Point
	Points   []geo.Point
	Lines    [][]geo.Point
	Polygons [][][]geo.Point
	Geoms    []Geometry
}

// NewPoint wraps a point as a Geometry.
func NewPoint(p geo.Point) Geometry { return Geometry{Kind: KindPoint, Point: p} }

// NewLineString wraps a polyline as a Geometry.
func NewLineString(pts []geo.Point) Geometry {
	return Geometry{Kind: KindLineString, Line: pts, Empty: len(pts) == 0}
}

// NewPolygon wraps rings (exterior first) as a Geometry.
func NewPolygon(rings [][]geo.Point) Geometry {
	return Geometry{Kind: KindPolygon, Rings: rings, Empty: len(rings) == 0}
}

// Marshal serializes the geometry to canonical WKT.
func Marshal(g Geometry) string {
	var b strings.Builder
	writeGeometry(&b, g)
	return b.String()
}

func writeGeometry(b *strings.Builder, g Geometry) {
	b.WriteString(g.Kind.String())
	b.WriteByte(' ')
	if g.Empty {
		b.WriteString("EMPTY")
		return
	}
	switch g.Kind {
	case KindPoint:
		b.WriteByte('(')
		writeCoord(b, g.Point)
		b.WriteByte(')')
	case KindLineString:
		writeLine(b, g.Line)
	case KindPolygon:
		writeRings(b, g.Rings)
	case KindMultiPoint:
		b.WriteByte('(')
		for i, p := range g.Points {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteByte('(')
			writeCoord(b, p)
			b.WriteByte(')')
		}
		b.WriteByte(')')
	case KindMultiLineString:
		b.WriteByte('(')
		for i, l := range g.Lines {
			if i > 0 {
				b.WriteString(", ")
			}
			writeLine(b, l)
		}
		b.WriteByte(')')
	case KindMultiPolygon:
		b.WriteByte('(')
		for i, poly := range g.Polygons {
			if i > 0 {
				b.WriteString(", ")
			}
			writeRings(b, poly)
		}
		b.WriteByte(')')
	case KindGeometryCollection:
		b.WriteByte('(')
		for i, sub := range g.Geoms {
			if i > 0 {
				b.WriteString(", ")
			}
			writeGeometry(b, sub)
		}
		b.WriteByte(')')
	}
}

func writeCoord(b *strings.Builder, p geo.Point) {
	b.WriteString(strconv.FormatFloat(p.Lon, 'f', -1, 64))
	b.WriteByte(' ')
	b.WriteString(strconv.FormatFloat(p.Lat, 'f', -1, 64))
}

func writeLine(b *strings.Builder, pts []geo.Point) {
	b.WriteByte('(')
	for i, p := range pts {
		if i > 0 {
			b.WriteString(", ")
		}
		writeCoord(b, p)
	}
	b.WriteByte(')')
}

func writeRings(b *strings.Builder, rings [][]geo.Point) {
	b.WriteByte('(')
	for i, r := range rings {
		if i > 0 {
			b.WriteString(", ")
		}
		writeLine(b, r)
	}
	b.WriteByte(')')
}

// Parse parses a WKT string into a Geometry.
func Parse(s string) (Geometry, error) {
	p := &parser{src: s}
	g, err := p.geometry()
	if err != nil {
		return Geometry{}, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return Geometry{}, fmt.Errorf("wkt: trailing input at offset %d", p.pos)
	}
	return g, nil
}

// MustParse parses s and panics on error. For tests and literals.
func MustParse(s string) Geometry {
	g, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return g
}

type parser struct {
	src string
	pos int
}

var errUnexpectedEnd = errors.New("wkt: unexpected end of input")

func (p *parser) skipSpace() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *parser) word() string {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') {
			p.pos++
		} else {
			break
		}
	}
	return strings.ToUpper(p.src[start:p.pos])
}

func (p *parser) expect(c byte) error {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return errUnexpectedEnd
	}
	if p.src[p.pos] != c {
		return fmt.Errorf("wkt: expected %q at offset %d, found %q", c, p.pos, p.src[p.pos])
	}
	p.pos++
	return nil
}

func (p *parser) peek() byte {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) number() (float64, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' {
			p.pos++
		} else {
			break
		}
	}
	if start == p.pos {
		return 0, fmt.Errorf("wkt: expected number at offset %d", p.pos)
	}
	return strconv.ParseFloat(p.src[start:p.pos], 64)
}

func (p *parser) coord() (geo.Point, error) {
	lon, err := p.number()
	if err != nil {
		return geo.Point{}, err
	}
	lat, err := p.number()
	if err != nil {
		return geo.Point{}, err
	}
	return geo.Point{Lon: lon, Lat: lat}, nil
}

// coordList parses "(c, c, ...)".
func (p *parser) coordList() ([]geo.Point, error) {
	if err := p.expect('('); err != nil {
		return nil, err
	}
	var pts []geo.Point
	for {
		pt, err := p.coord()
		if err != nil {
			return nil, err
		}
		pts = append(pts, pt)
		if p.peek() == ',' {
			p.pos++
			continue
		}
		break
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	return pts, nil
}

// ringList parses "((...), (...))".
func (p *parser) ringList() ([][]geo.Point, error) {
	if err := p.expect('('); err != nil {
		return nil, err
	}
	var rings [][]geo.Point
	for {
		ring, err := p.coordList()
		if err != nil {
			return nil, err
		}
		rings = append(rings, ring)
		if p.peek() == ',' {
			p.pos++
			continue
		}
		break
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	return rings, nil
}

func (p *parser) isEmpty() bool {
	save := p.pos
	if p.word() == "EMPTY" {
		return true
	}
	p.pos = save
	return false
}

func (p *parser) geometry() (Geometry, error) {
	tag := p.word()
	switch tag {
	case "POINT":
		if p.isEmpty() {
			return Geometry{Kind: KindPoint, Empty: true}, nil
		}
		if err := p.expect('('); err != nil {
			return Geometry{}, err
		}
		pt, err := p.coord()
		if err != nil {
			return Geometry{}, err
		}
		if err := p.expect(')'); err != nil {
			return Geometry{}, err
		}
		return Geometry{Kind: KindPoint, Point: pt}, nil

	case "LINESTRING":
		if p.isEmpty() {
			return Geometry{Kind: KindLineString, Empty: true}, nil
		}
		pts, err := p.coordList()
		if err != nil {
			return Geometry{}, err
		}
		if len(pts) < 2 {
			return Geometry{}, errors.New("wkt: linestring needs at least 2 points")
		}
		return Geometry{Kind: KindLineString, Line: pts}, nil

	case "POLYGON":
		if p.isEmpty() {
			return Geometry{Kind: KindPolygon, Empty: true}, nil
		}
		rings, err := p.ringList()
		if err != nil {
			return Geometry{}, err
		}
		for _, r := range rings {
			if len(r) < 4 {
				return Geometry{}, errors.New("wkt: polygon ring needs at least 4 points")
			}
			if r[0] != r[len(r)-1] {
				return Geometry{}, errors.New("wkt: polygon ring must be closed")
			}
		}
		return Geometry{Kind: KindPolygon, Rings: rings}, nil

	case "MULTIPOINT":
		if p.isEmpty() {
			return Geometry{Kind: KindMultiPoint, Empty: true}, nil
		}
		if err := p.expect('('); err != nil {
			return Geometry{}, err
		}
		var pts []geo.Point
		for {
			var pt geo.Point
			var err error
			// Both "MULTIPOINT ((1 2), (3 4))" and "MULTIPOINT (1 2, 3 4)"
			// are legal WKT.
			if p.peek() == '(' {
				p.pos++
				pt, err = p.coord()
				if err == nil {
					err = p.expect(')')
				}
			} else {
				pt, err = p.coord()
			}
			if err != nil {
				return Geometry{}, err
			}
			pts = append(pts, pt)
			if p.peek() == ',' {
				p.pos++
				continue
			}
			break
		}
		if err := p.expect(')'); err != nil {
			return Geometry{}, err
		}
		return Geometry{Kind: KindMultiPoint, Points: pts}, nil

	case "MULTILINESTRING":
		if p.isEmpty() {
			return Geometry{Kind: KindMultiLineString, Empty: true}, nil
		}
		lines, err := p.ringList()
		if err != nil {
			return Geometry{}, err
		}
		return Geometry{Kind: KindMultiLineString, Lines: lines}, nil

	case "MULTIPOLYGON":
		if p.isEmpty() {
			return Geometry{Kind: KindMultiPolygon, Empty: true}, nil
		}
		if err := p.expect('('); err != nil {
			return Geometry{}, err
		}
		var polys [][][]geo.Point
		for {
			rings, err := p.ringList()
			if err != nil {
				return Geometry{}, err
			}
			polys = append(polys, rings)
			if p.peek() == ',' {
				p.pos++
				continue
			}
			break
		}
		if err := p.expect(')'); err != nil {
			return Geometry{}, err
		}
		return Geometry{Kind: KindMultiPolygon, Polygons: polys}, nil

	case "GEOMETRYCOLLECTION":
		if p.isEmpty() {
			return Geometry{Kind: KindGeometryCollection, Empty: true}, nil
		}
		if err := p.expect('('); err != nil {
			return Geometry{}, err
		}
		var geoms []Geometry
		for {
			g, err := p.geometry()
			if err != nil {
				return Geometry{}, err
			}
			geoms = append(geoms, g)
			if p.peek() == ',' {
				p.pos++
				continue
			}
			break
		}
		if err := p.expect(')'); err != nil {
			return Geometry{}, err
		}
		return Geometry{Kind: KindGeometryCollection, Geoms: geoms}, nil

	case "":
		return Geometry{}, errUnexpectedEnd
	default:
		return Geometry{}, fmt.Errorf("wkt: unknown geometry type %q", tag)
	}
}
