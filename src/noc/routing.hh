/**
 * @file
 * Dimension-order (XY) routing on the 2-D mesh. X is resolved first,
 * then Y; deterministic and deadlock-free within each virtual network.
 */

#ifndef CONSIM_NOC_ROUTING_HH
#define CONSIM_NOC_ROUTING_HH

#include "common/logging.hh"
#include "common/types.hh"

namespace consim
{

/** Router port indices. Local connects to the tile's NI. */
enum Port : int
{
    PortLocal = 0,
    PortNorth = 1, ///< towards y-1
    PortSouth = 2, ///< towards y+1
    PortEast = 3,  ///< towards x+1
    PortWest = 4,  ///< towards x-1
    NumPorts = 5,
};

/** @return the port on the neighbor that faces back at us. */
constexpr int
oppositePort(int port)
{
    switch (port) {
      case PortNorth: return PortSouth;
      case PortSouth: return PortNorth;
      case PortEast: return PortWest;
      case PortWest: return PortEast;
      default: return PortLocal;
    }
}

/**
 * XY dimension-order routing from tile @p here in column @p here_x
 * to tile @p dest in column @p dest_x: the division-free form the
 * routers use, with every tile's column precomputed.
 */
inline int
xyRoute(CoreId here, int here_x, CoreId dest, int dest_x)
{
    if (dest_x > here_x)
        return PortEast;
    if (dest_x < here_x)
        return PortWest;
    // Same column: tiles are numbered row by row, so tile order is
    // row order.
    if (dest > here)
        return PortSouth;
    if (dest < here)
        return PortNorth;
    return PortLocal;
}

/**
 * Compute the output port for a packet at tile @p here going to tile
 * @p dest on an meshX x meshY mesh, using XY dimension-order routing.
 */
inline int
xyRoute(CoreId here, CoreId dest, int mesh_x)
{
    return xyRoute(here, here % mesh_x, dest, dest % mesh_x);
}

/** @return Manhattan hop distance between two tiles. */
inline int
hopDistance(CoreId a, CoreId b, int mesh_x)
{
    const int ax = a % mesh_x, ay = a / mesh_x;
    const int bx = b % mesh_x, by = b / mesh_x;
    const int dx = ax > bx ? ax - bx : bx - ax;
    const int dy = ay > by ? ay - by : by - ay;
    return dx + dy;
}

} // namespace consim

#endif // CONSIM_NOC_ROUTING_HH
