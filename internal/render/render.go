// Package render regenerates the paper's figures without ArcGIS: an SVG
// map renderer (equirectangular projection) for nodes, conduits, cables,
// Thiessen cells and buffers, plus a GeoJSON exporter so any external GIS
// can consume iGDB layers.
package render

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"igdb/internal/geo"
	"igdb/internal/wkt"
)

// Style controls how a map element is drawn.
type Style struct {
	Stroke      string
	StrokeWidth float64
	Fill        string
	Opacity     float64
	Radius      float64 // circles only, px
	Dash        string  // SVG stroke-dasharray, "" = solid
}

// appendAttrs appends the style's SVG attributes to b.
func (s Style) appendAttrs(b []byte) []byte {
	if s.Stroke != "" {
		b = append(append(append(b, ` stroke="`...), s.Stroke...), '"')
	}
	if s.StrokeWidth > 0 {
		b = append(AppendFixed(append(b, ` stroke-width="`...), s.StrokeWidth, 2), '"')
	}
	if s.Fill != "" {
		b = append(append(append(b, ` fill="`...), s.Fill...), '"')
	} else {
		b = append(b, ` fill="none"`...)
	}
	if s.Opacity > 0 && s.Opacity < 1 {
		b = append(AppendFixed(append(b, ` opacity="`...), s.Opacity, 2), '"')
	}
	if s.Dash != "" {
		b = append(append(append(b, ` stroke-dasharray="`...), s.Dash...), '"')
	}
	return b
}

// pow10 holds the scales AppendFixed rounds at.
var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6}

// AppendFixed appends v as fmt's %.<prec>f writes it, byte for byte, for
// prec 0 to 6. fmt and strconv write every fixed-precision float through
// strconv's multiprecision path. Here v is scaled by 10^prec and rounded
// in float64 instead; that rounding errs by less than 2.5e-7 below 2^31,
// so it gives strconv's digits unless the scaled value lies within 1e-6
// of a tie. Those, NaN, ±Inf and magnitudes from 2^31/10^prec up go to
// strconv. A negative value that rounds to zero keeps its sign, as fmt
// writes -0.0.
func AppendFixed(dst []byte, v float64, prec int) []byte {
	scaled := math.Abs(v) * pow10[prec]
	whole := math.Floor(scaled)
	frac := scaled - whole
	if !(scaled < 1<<31) || math.Abs(frac-0.5) < 1e-6 {
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	n := int64(whole)
	if frac > 0.5 {
		n++
	}
	if math.Signbit(v) {
		dst = append(dst, '-')
	}
	var digits [16]byte
	i := len(digits)
	for d := 0; d <= prec || n > 0; d++ {
		if d == prec && prec > 0 {
			i--
			digits[i] = '.'
		}
		i--
		digits[i] = byte('0' + n%10)
		n /= 10
	}
	return append(dst, digits[i:]...)
}

// Map accumulates drawable layers over a geographic bounding box.
type Map struct {
	W, H     int
	Box      geo.BBox
	elements []string
	title    string
}

// NewWorldMap creates a whole-Earth canvas.
func NewWorldMap(w, h int) *Map {
	return NewMap(geo.BBox{MinLon: -180, MinLat: -90, MaxLon: 180, MaxLat: 90}, w, h)
}

// NewMap creates a canvas over the given region.
func NewMap(box geo.BBox, w, h int) *Map {
	return &Map{W: w, H: h, Box: box}
}

// SetTitle adds a caption in the top-left corner.
func (m *Map) SetTitle(t string) { m.title = t }

// project maps lon/lat to pixel coordinates (equirectangular; y grows down).
func (m *Map) project(p geo.Point) (x, y float64) {
	x = (p.Lon - m.Box.MinLon) / (m.Box.MaxLon - m.Box.MinLon) * float64(m.W)
	y = (m.Box.MaxLat - p.Lat) / (m.Box.MaxLat - m.Box.MinLat) * float64(m.H)
	return x, y
}

// Polyline draws a line path.
func (m *Map) Polyline(pts []geo.Point, st Style) {
	if len(pts) < 2 {
		return
	}
	m.points(`<polyline points="`, pts, st)
}

// Polygon draws a closed ring.
func (m *Map) Polygon(ring []geo.Point, st Style) {
	if len(ring) < 3 {
		return
	}
	m.points(`<polygon points="`, ring, st)
}

// points adds the element that open starts, with pts projected as its
// "x,y x,y ..." points attribute.
func (m *Map) points(open string, pts []geo.Point, st Style) {
	b := make([]byte, 0, len(open)+12*len(pts)+64)
	b = append(b, open...)
	for i, p := range pts {
		if i > 0 {
			b = append(b, ' ')
		}
		x, y := m.project(p)
		b = AppendPoint(b, x, y)
	}
	b = append(st.appendAttrs(append(b, '"')), "/>"...)
	m.elements = append(m.elements, string(b))
}

// AppendPoint appends x,y with one decimal each, as fmt's "%.1f,%.1f".
func AppendPoint(dst []byte, x, y float64) []byte {
	return AppendFixed(append(AppendFixed(dst, x, 1), ','), y, 1)
}

// Circle draws a fixed-pixel-radius marker at a location.
func (m *Map) Circle(p geo.Point, st Style) {
	x, y := m.project(p)
	r := st.Radius
	if r <= 0 {
		r = 2
	}
	b := make([]byte, 0, 96)
	b = AppendFixed(append(b, `<circle cx="`...), x, 1)
	b = AppendFixed(append(b, `" cy="`...), y, 1)
	b = AppendFixed(append(b, `" r="`...), r, 1)
	b = append(st.appendAttrs(append(b, '"')), "/>"...)
	m.elements = append(m.elements, string(b))
}

// Text places a label at a location.
func (m *Map) Text(p geo.Point, label string, size int) {
	x, y := m.project(p)
	if size <= 0 {
		size = 10
	}
	b := make([]byte, 0, 96+len(label))
	b = AppendFixed(append(b, `<text x="`...), x, 1)
	b = AppendFixed(append(b, `" y="`...), y, 1)
	b = strconv.AppendInt(append(b, `" font-size="`...), int64(size), 10)
	b = append(b, `" font-family="sans-serif">`...)
	b = append(append(b, escape(label)...), "</text>"...)
	m.elements = append(m.elements, string(b))
}

// Geometry draws any WKT geometry with one style.
func (m *Map) Geometry(g wkt.Geometry, st Style) {
	switch g.Kind {
	case wkt.KindPoint:
		if !g.Empty {
			m.Circle(g.Point, st)
		}
	case wkt.KindLineString:
		m.Polyline(g.Line, st)
	case wkt.KindPolygon:
		if len(g.Rings) > 0 {
			m.Polygon(g.Rings[0], st)
		}
	case wkt.KindMultiPoint:
		for _, p := range g.Points {
			m.Circle(p, st)
		}
	case wkt.KindMultiLineString:
		for _, l := range g.Lines {
			m.Polyline(l, st)
		}
	case wkt.KindMultiPolygon:
		for _, poly := range g.Polygons {
			if len(poly) > 0 {
				m.Polygon(poly[0], st)
			}
		}
	case wkt.KindGeometryCollection:
		for _, sub := range g.Geoms {
			m.Geometry(sub, st)
		}
	}
}

// ElementCount returns how many drawables have been added (for tests).
func (m *Map) ElementCount() int { return len(m.elements) }

func escape(s string) string {
	s = strings.ReplaceAll(s, "&", "&amp;")
	s = strings.ReplaceAll(s, "<", "&lt;")
	s = strings.ReplaceAll(s, ">", "&gt;")
	return s
}

// SVG renders the accumulated layers.
func (m *Map) SVG() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`,
		m.W, m.H, m.W, m.H)
	b.WriteString(`<rect width="100%" height="100%" fill="#ffffff"/>`)
	for _, e := range m.elements {
		b.WriteString(e)
	}
	if m.title != "" {
		fmt.Fprintf(&b, `<text x="8" y="18" font-size="14" font-family="sans-serif">%s</text>`, escape(m.title))
	}
	b.WriteString(`</svg>`)
	return []byte(b.String())
}

// ---- GeoJSON ----

// feature is one GeoJSON Feature as WriteFeatures encodes it.
type feature struct {
	Type       string                 `json:"type"`
	Geometry   json.RawMessage        `json:"geometry"`
	Properties map[string]interface{} `json:"properties"`
}

func coord(p geo.Point) []float64 { return []float64{p.Lon, p.Lat} }

func coords(pts []geo.Point) [][]float64 {
	out := make([][]float64, len(pts))
	for i, p := range pts {
		out[i] = coord(p)
	}
	return out
}

func geometryJSON(g wkt.Geometry) (json.RawMessage, error) {
	var obj interface{}
	switch g.Kind {
	case wkt.KindPoint:
		obj = map[string]interface{}{"type": "Point", "coordinates": coord(g.Point)}
	case wkt.KindLineString:
		obj = map[string]interface{}{"type": "LineString", "coordinates": coords(g.Line)}
	case wkt.KindPolygon:
		rings := make([][][]float64, len(g.Rings))
		for i, r := range g.Rings {
			rings[i] = coords(r)
		}
		obj = map[string]interface{}{"type": "Polygon", "coordinates": rings}
	case wkt.KindMultiPoint:
		obj = map[string]interface{}{"type": "MultiPoint", "coordinates": coords(g.Points)}
	case wkt.KindMultiLineString:
		lines := make([][][]float64, len(g.Lines))
		for i, l := range g.Lines {
			lines[i] = coords(l)
		}
		obj = map[string]interface{}{"type": "MultiLineString", "coordinates": lines}
	case wkt.KindMultiPolygon:
		polys := make([][][][]float64, len(g.Polygons))
		for i, poly := range g.Polygons {
			rings := make([][][]float64, len(poly))
			for j, r := range poly {
				rings[j] = coords(r)
			}
			polys[i] = rings
		}
		obj = map[string]interface{}{"type": "MultiPolygon", "coordinates": polys}
	default:
		return nil, fmt.Errorf("render: unsupported GeoJSON geometry %s", g.Kind)
	}
	return json.Marshal(obj)
}
