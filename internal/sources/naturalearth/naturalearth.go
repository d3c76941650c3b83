// Package naturalearth emulates the two Natural Earth datasets iGDB
// consumes: the 10m populated-places point shapefile (the 7,342 urban areas
// that seed the Thiessen tessellation) and the roads/railroads line
// shapefiles that define transportation rights-of-way. Both are exported as
// CSV with WKT geometry, the shape most GIS CSV exports take.
package naturalearth

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"strconv"

	"igdb/internal/geo"
	"igdb/internal/wkt"
	"igdb/internal/worldgen"
)

// Place is one populated-place record.
type Place struct {
	Name       string
	State      string
	Country    string
	Loc        geo.Point
	Population int // thousands
}

// Road is one right-of-way segment with its geometry. The CSV's kind
// column ("road" or "rail") is parsed past: nothing reads it.
type Road struct {
	Path     []geo.Point
	LengthKm float64
}

// Dataset is a serialized Natural Earth snapshot.
type Dataset struct {
	PlacesCSV []byte
	RoadsCSV  []byte
}

// Export renders the populated places and right-of-way layers.
func Export(w *worldgen.World) *Dataset {
	var places bytes.Buffer
	pw := csv.NewWriter(&places)
	writeRecord(pw, "name", "adm1", "iso_a2", "latitude", "longitude", "pop_max")
	for _, c := range w.Cities {
		writeRecord(pw,
			c.Name, c.State, c.Country,
			strconv.FormatFloat(c.Loc.Lat, 'f', 5, 64),
			strconv.FormatFloat(c.Loc.Lon, 'f', 5, 64),
			strconv.Itoa(c.Population*1000))
	}
	pw.Flush()

	var roads bytes.Buffer
	rw := csv.NewWriter(&roads)
	writeRecord(rw, "kind", "length_km", "wkt")
	for _, e := range w.Roads {
		writeRecord(rw,
			e.Kind,
			strconv.FormatFloat(e.LengthKm, 'f', 1, 64),
			wkt.Marshal(wkt.NewLineString(e.Path)))
	}
	rw.Flush()
	return &Dataset{PlacesCSV: places.Bytes(), RoadsCSV: roads.Bytes()}
}

// Parse reads a snapshot back.
func Parse(d *Dataset) ([]Place, []Road, error) {
	pr := csv.NewReader(bytes.NewReader(d.PlacesCSV))
	rows, err := pr.ReadAll()
	if err != nil {
		return nil, nil, fmt.Errorf("naturalearth: places: %w", err)
	}
	var places []Place
	for i, row := range rows {
		if i == 0 {
			continue
		}
		if len(row) != 6 {
			return nil, nil, fmt.Errorf("naturalearth: places row %d has %d fields", i, len(row))
		}
		lat, err1 := strconv.ParseFloat(row[3], 64)
		lon, err2 := strconv.ParseFloat(row[4], 64)
		pop, err3 := strconv.Atoi(row[5])
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, nil, fmt.Errorf("naturalearth: places row %d malformed", i)
		}
		places = append(places, Place{
			Name: row[0], State: row[1], Country: row[2],
			Loc: geo.Point{Lon: lon, Lat: lat}, Population: pop / 1000,
		})
	}
	rr := csv.NewReader(bytes.NewReader(d.RoadsCSV))
	rr.FieldsPerRecord = 3
	rrows, err := rr.ReadAll()
	if err != nil {
		return nil, nil, fmt.Errorf("naturalearth: roads: %w", err)
	}
	var roads []Road
	for i, row := range rrows {
		if i == 0 {
			continue
		}
		km, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			return nil, nil, fmt.Errorf("naturalearth: roads row %d bad length", i)
		}
		g, err := wkt.Parse(row[2])
		if err != nil || g.Kind != wkt.KindLineString {
			return nil, nil, fmt.Errorf("naturalearth: roads row %d bad geometry", i)
		}
		roads = append(roads, Road{Path: g.Line, LengthKm: km})
	}
	return places, roads, nil
}

// writeRecord appends one CSV record. The writers here target in-memory
// buffers, which never fail, so a csv.Writer error would be a programming
// bug; panicking keeps Export's error-free signature honest.
func writeRecord(w *csv.Writer, record ...string) {
	if err := w.Write(record); err != nil {
		panic(err)
	}
}
