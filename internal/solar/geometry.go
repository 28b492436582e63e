// Package solar models on-site photovoltaic electricity production for the
// GreenMatch simulator.
//
// The model is layered exactly like the physical system:
//
//	sun position (astronomy)  ->  clear-sky irradiance at the panel
//	  -> cloud attenuation (stochastic Markov weather process)
//	    -> PV panel + inverter conversion  ->  electrical power
//
// Production can also be replayed from a CSV trace of per-slot watts, so a
// real farm trace (the genre papers use a campus 8x240 W farm) can be
// substituted for the synthetic model without touching the scheduler.
package solar

import "math"

// degToRad converts degrees to radians.
func degToRad(d float64) float64 { return d * math.Pi / 180 }

// Declination returns the solar declination in radians for the given day of
// year (1..365), using the Cooper (1969) approximation commonly used in PV
// engineering: delta = 23.45 deg * sin(360/365 * (284 + n)).
func Declination(dayOfYear int) float64 {
	return degToRad(23.45) * math.Sin(degToRad(360.0/365.0*float64(284+dayOfYear)))
}

// HourAngle returns the solar hour angle in radians for the given local
// solar hour (0..24, 12 = solar noon). Each hour is 15 degrees.
func HourAngle(solarHour float64) float64 {
	return degToRad(15 * (solarHour - 12))
}

// ElevationSin returns sin(alpha) of the solar elevation angle alpha for a
// site at the given latitude (radians) at the given declination and hour
// angle. Negative values mean the sun is below the horizon.
func ElevationSin(latitude, declination, hourAngle float64) float64 {
	return math.Sin(latitude)*math.Sin(declination) +
		math.Cos(latitude)*math.Cos(declination)*math.Cos(hourAngle)
}

// AirMass returns the relative optical air mass for the given sin(elevation)
// using the Kasten–Young 1989 formula. It returns +Inf when the sun is at or
// below the horizon.
func AirMass(sinElev float64) float64 {
	if sinElev <= 0 {
		return math.Inf(1)
	}
	elev := math.Asin(sinElev)
	zenithDeg := 90 - elev*180/math.Pi
	return 1 / (sinElev + 0.50572*math.Pow(96.07995-zenithDeg, -1.6364))
}

// solarConstant is the extraterrestrial irradiance in W/m^2.
const solarConstant = 1353.0

// ClearSkyIrradiance returns the direct-normal-ish irradiance on a
// horizontal panel in W/m^2 for a site at `latitudeDeg` on `dayOfYear` at
// local solar `hour`, using the Meinel clear-sky attenuation model
// I = 1353 * 0.7^(AM^0.678) projected by sin(elevation). The result is zero
// at night by construction.
func ClearSkyIrradiance(latitudeDeg float64, dayOfYear int, hour float64) float64 {
	lat := degToRad(latitudeDeg)
	delta := Declination(dayOfYear)
	h := HourAngle(hour)
	sinElev := ElevationSin(lat, delta, h)
	if sinElev <= 0 {
		return 0
	}
	am := AirMass(sinElev)
	direct := solarConstant * math.Pow(0.7, math.Pow(am, 0.678))
	return direct * sinElev
}
