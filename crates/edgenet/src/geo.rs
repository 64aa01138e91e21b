//! Geographic coordinates and propagation-delay estimation.

/// Mean Earth radius in kilometres.
pub const EARTH_RADIUS_KM: f64 = 6371.0;

/// Signal propagation speed in fibre, km per millisecond (≈ 2/3 c).
pub const FIBRE_KM_PER_MS: f64 = 200.0;

/// Multiplier accounting for fibre paths not following great circles.
pub const ROUTE_CIRCUITY: f64 = 1.6;

/// A point on the Earth's surface (degrees).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    /// Latitude in degrees, `[-90, 90]`.
    pub lat: f64,
    /// Longitude in degrees, `[-180, 180]`.
    pub lon: f64,
}

impl GeoPoint {
    /// Creates a point, validating ranges.
    ///
    /// # Panics
    ///
    /// Panics if latitude or longitude are out of range or non-finite.
    pub fn new(lat: f64, lon: f64) -> Self {
        assert!(
            lat.is_finite() && (-90.0..=90.0).contains(&lat),
            "latitude {lat} out of range"
        );
        assert!(
            lon.is_finite() && (-180.0..=180.0).contains(&lon),
            "longitude {lon} out of range"
        );
        Self { lat, lon }
    }

    /// Great-circle distance to `other` in kilometres (haversine formula).
    pub fn distance_km(&self, other: &GeoPoint) -> f64 {
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_KM * a.sqrt().asin()
    }

    /// One-way propagation delay to `other` in milliseconds, assuming fibre
    /// with typical route circuity.
    pub fn propagation_delay_ms(&self, other: &GeoPoint) -> f64 {
        self.distance_km(other) * ROUTE_CIRCUITY / FIBRE_KM_PER_MS
    }
}

/// Well-known metro locations used by the topology presets.
///
/// Returns `(name, point)` pairs; order is stable.
pub fn metro_catalog() -> Vec<(&'static str, GeoPoint)> {
    vec![
        ("new-york", GeoPoint::new(40.7128, -74.0060)),
        ("chicago", GeoPoint::new(41.8781, -87.6298)),
        ("dallas", GeoPoint::new(32.7767, -96.7970)),
        ("los-angeles", GeoPoint::new(34.0522, -118.2437)),
        ("seattle", GeoPoint::new(47.6062, -122.3321)),
        ("miami", GeoPoint::new(25.7617, -80.1918)),
        ("denver", GeoPoint::new(39.7392, -104.9903)),
        ("atlanta", GeoPoint::new(33.7490, -84.3880)),
        ("london", GeoPoint::new(51.5074, -0.1278)),
        ("frankfurt", GeoPoint::new(50.1109, 8.6821)),
        ("paris", GeoPoint::new(48.8566, 2.3522)),
        ("amsterdam", GeoPoint::new(52.3676, 4.9041)),
        ("tokyo", GeoPoint::new(35.6762, 139.6503)),
        ("singapore", GeoPoint::new(1.3521, 103.8198)),
        ("sydney", GeoPoint::new(-33.8688, 151.2093)),
        ("sao-paulo", GeoPoint::new(-23.5505, -46.6333)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_to_self_is_zero() {
        let p = GeoPoint::new(40.0, -74.0);
        assert!(p.distance_km(&p) < 1e-9);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = GeoPoint::new(40.7128, -74.0060);
        let b = GeoPoint::new(51.5074, -0.1278);
        assert!((a.distance_km(&b) - b.distance_km(&a)).abs() < 1e-9);
    }

    #[test]
    fn nyc_to_london_roughly_5570km() {
        let nyc = GeoPoint::new(40.7128, -74.0060);
        let london = GeoPoint::new(51.5074, -0.1278);
        let d = nyc.distance_km(&london);
        assert!((d - 5570.0).abs() < 60.0, "distance {d}");
    }

    #[test]
    fn propagation_delay_scales_with_distance() {
        let nyc = GeoPoint::new(40.7128, -74.0060);
        let chi = GeoPoint::new(41.8781, -87.6298);
        let london = GeoPoint::new(51.5074, -0.1278);
        assert!(nyc.propagation_delay_ms(&chi) < nyc.propagation_delay_ms(&london));
        // NYC→London ≈ 5570 km * 1.6 / 200 ≈ 44.6 ms one-way.
        let d = nyc.propagation_delay_ms(&london);
        assert!((d - 44.6).abs() < 2.0, "delay {d}");
    }

    #[test]
    fn antipodal_distance_near_half_circumference() {
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(0.0, 180.0);
        let d = a.distance_km(&b);
        assert!((d - std::f64::consts::PI * EARTH_RADIUS_KM).abs() < 1.0);
    }

    #[test]
    fn metro_catalog_is_nonempty_and_unique() {
        let cat = metro_catalog();
        assert!(cat.len() >= 10);
        let names: std::collections::HashSet<_> = cat.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), cat.len());
    }

    #[test]
    #[should_panic(expected = "latitude")]
    fn invalid_latitude_panics() {
        let _ = GeoPoint::new(100.0, 0.0);
    }
}
