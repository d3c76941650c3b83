package render

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"igdb/internal/geo"
	"igdb/internal/reldb"
	"igdb/internal/wkt"
)

// layerNames lists the exportable GIS layers, each backed by one Figure 2
// relation. Order is the documented CLI/HTTP order.
var layerNames = []string{"phys_nodes", "std_paths", "sub_cables", "city_points", "city_polygons"}

// Layers returns the names of the exportable GIS layers.
func Layers() []string {
	out := make([]string, len(layerNames))
	copy(out, layerNames)
	return out
}

// LayerFeatures iterates a layer's (geometry, properties) features straight
// from the built database's relations, yielding each feature in relation
// order. Rows whose stored WKT fails to parse are skipped, matching the
// forgiving behaviour GIS exports need.
func LayerFeatures(db *reldb.DB, layer string, yield func(wkt.Geometry, map[string]interface{}) error) error {
	switch layer {
	case "phys_nodes":
		rows, err := db.Query(`SELECT node_name, organization, metro, country, longitude, latitude FROM phys_nodes`)
		if err != nil {
			return err
		}
		for _, r := range rows.Rows {
			name, _ := r[0].AsText()
			org, _ := r[1].AsText()
			metro, _ := r[2].AsText()
			country, _ := r[3].AsText()
			lon, _ := r[4].AsFloat()
			lat, _ := r[5].AsFloat()
			err := yield(wkt.NewPoint(geo.Point{Lon: lon, Lat: lat}),
				map[string]interface{}{"name": name, "organization": org, "metro": metro, "country": country})
			if err != nil {
				return err
			}
		}
	case "std_paths":
		rows, err := db.Query(`SELECT from_metro, to_metro, distance_km, path_wkt FROM std_paths`)
		if err != nil {
			return err
		}
		for _, r := range rows.Rows {
			from, _ := r[0].AsText()
			to, _ := r[1].AsText()
			km, _ := r[2].AsFloat()
			s, _ := r[3].AsText()
			geomW, err := wkt.Parse(s)
			if err != nil {
				continue
			}
			if err := yield(geomW, map[string]interface{}{"from": from, "to": to, "km": km}); err != nil {
				return err
			}
		}
	case "sub_cables":
		rows, err := db.Query(`SELECT cable_name, length_km, cable_wkt FROM sub_cables`)
		if err != nil {
			return err
		}
		for _, r := range rows.Rows {
			name, _ := r[0].AsText()
			km, _ := r[1].AsFloat()
			s, _ := r[2].AsText()
			geomW, err := wkt.Parse(s)
			if err != nil {
				continue
			}
			if err := yield(geomW, map[string]interface{}{"name": name, "km": km}); err != nil {
				return err
			}
		}
	case "city_points":
		rows, err := db.Query(`SELECT city, country, longitude, latitude, population FROM city_points`)
		if err != nil {
			return err
		}
		for _, r := range rows.Rows {
			city, _ := r[0].AsText()
			country, _ := r[1].AsText()
			lon, _ := r[2].AsFloat()
			lat, _ := r[3].AsFloat()
			pop, _ := r[4].AsInt()
			err := yield(wkt.NewPoint(geo.Point{Lon: lon, Lat: lat}),
				map[string]interface{}{"city": city, "country": country, "population": pop})
			if err != nil {
				return err
			}
		}
	case "city_polygons":
		rows, err := db.Query(`SELECT city, country, geom FROM city_polygons`)
		if err != nil {
			return err
		}
		for _, r := range rows.Rows {
			city, _ := r[0].AsText()
			country, _ := r[1].AsText()
			s, _ := r[2].AsText()
			geomW, err := wkt.Parse(s)
			if err != nil {
				continue
			}
			if err := yield(geomW, map[string]interface{}{"city": city, "country": country}); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("render: unknown layer %q", layer)
	}
	return nil
}

// WriteFeatures streams a GeoJSON FeatureCollection to w one feature at a
// time, so an HTTP handler never buffers the whole document. It writes the
// header, lets each add features (properties may be nil), and writes the
// footer even when each fails, so partial output is still well-formed
// GeoJSON; the feature error is the one worth reporting, and a footer
// error is joined to it. It returns the number of features written.
func WriteFeatures(w io.Writer, each func(add func(wkt.Geometry, map[string]any) error) error) (int, error) {
	if _, err := io.WriteString(w, `{"type":"FeatureCollection","features":[`); err != nil {
		return 0, err
	}
	n := 0
	err := each(func(g wkt.Geometry, props map[string]any) error {
		gj, err := geometryJSON(g)
		if err != nil {
			return err
		}
		if props == nil {
			props = map[string]any{}
		}
		body, err := json.Marshal(feature{Type: "Feature", Geometry: gj, Properties: props})
		if err != nil {
			return err
		}
		if n > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		if _, err := w.Write(body); err != nil {
			return err
		}
		n++
		return nil
	})
	if _, ferr := io.WriteString(w, `]}`); ferr != nil {
		err = errors.Join(err, ferr)
	}
	return n, err
}

// WriteLayerGeoJSON streams one layer as a GeoJSON FeatureCollection,
// returning the feature count.
func WriteLayerGeoJSON(w io.Writer, db *reldb.DB, layer string) (int, error) {
	return WriteFeatures(w, func(add func(wkt.Geometry, map[string]any) error) error {
		return LayerFeatures(db, layer, add)
	})
}
